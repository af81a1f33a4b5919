"""Fixed workload specs and the seeded inputs built from them.

Plain numpy and json only: both run.py (which verifies) and
the workload process (which is timed) import this module, and neither the
inputs nor the oracles may depend on the package under test.

Each workload has a "full" spec (what the benchmark measures) and a
"smoke" spec (a tiny instance of the same kind, used as the warm-up
operation and by the self-check).  The specs are recorded verbatim; the
seed only drives randomized inputs (the Minkowski polylines) and the
oracle samples, so m1_run, m2_sweep, lattice_run and lattice_sweep get the
same input under every seed.
"""

from __future__ import annotations

import numpy as np

NAMES = ("m1_run", "m2_sweep", "lattice_run", "lattice_sweep", "minkowski_pairs")

D_VALUES = [2, 5, 10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120]
SCALES = [0, 0.3, 1, 3, 10, 30, 100, 300]

SPECS = {
    "full": {
        "m1_run": {
            "model": {"model": "M1", "N": 1_000_004, "M": 500_001, "K": 3},
            "distance": {"name": "step", "D": 50},
        },
        "m2_sweep": {
            "model": {"model": "M2", "N": 1_000_000, "M0": 499_999, "K0": 4,
                      "M1": 500_216, "K1": 4},
            "distance": {"name": "step", "D": D_VALUES[0]},
            "sweep": {"name": "D", "values": D_VALUES},
        },
        "lattice_run": {"steps": 7, "extent": 6, "start": 0, "end": 0, "hop": 2,
                        "distance": "max_sep", "weight": "corridor"},
        "lattice_sweep": {
            "model": {"model": "lattice", "steps": 6, "extent": 6, "start": 0,
                      "end": 0, "hop": 2},
            "distance": {"name": "max_sep"},
            "sweep": {"name": "distance_scale", "values": SCALES},
        },
        "minkowski_pairs": {"paths": 16, "causal": 8, "segments": 10, "T": 3.0},
    },
    "smoke": {
        "m1_run": {
            "model": {"model": "M1", "N": 204, "M": 101, "K": 3},
            "distance": {"name": "step", "D": 5},
        },
        "m2_sweep": {
            "model": {"model": "M2", "N": 600, "M0": 201, "K0": 4, "M1": 216, "K1": 4},
            "distance": {"name": "step", "D": 2},
            "sweep": {"name": "D", "values": [2, 5, 10, 20]},
        },
        "lattice_run": {"steps": 4, "extent": 3, "start": 0, "end": 0, "hop": 2,
                        "distance": "max_sep", "weight": "corridor"},
        "lattice_sweep": {
            "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0,
                      "end": 0, "hop": 2},
            "distance": {"name": "max_sep"},
            "sweep": {"name": "distance_scale", "values": [0, 1, 10]},
        },
        "minkowski_pairs": {"paths": 4, "causal": 2, "segments": 3, "T": 3.0},
    },
}

# REALPATH_THREADS for the sweeps, part of their spec
SWEEP_THREADS = "2"


def lattice_argv(spec: dict) -> list[str]:
    """The `realpathsim lattice` flags for a lattice_run spec."""
    return [
        "--steps", str(spec["steps"]), "--extent", str(spec["extent"]),
        "--start", str(spec["start"]), "--end", str(spec["end"]),
        "--hop", str(spec["hop"]), "--distance", spec["distance"],
        "--weight", spec["weight"],
    ]


def _causal_polyline(rng, segments: int, T: float) -> np.ndarray:
    """Shared endpoints (0,0) and (0,T), every segment speed <= 0.9."""
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, T - 0.05, segments - 1)), [T]])
    dt = np.diff(t)
    v = rng.uniform(-0.45, 0.45, segments)
    v -= np.dot(v, dt) / T          # returns to x = 0; |v| stays below 0.9
    x = np.concatenate([[0.0], np.cumsum(v * dt)])
    x[-1] = 0.0
    return np.column_stack([x, t])


def _non_causal_polyline(rng, segments: int, T: float) -> np.ndarray:
    """Strictly increasing t (so never anti-causal), some segment spacelike.

    Every segment is kept clear of the light cone, so the causal label
    does not hinge on rounding.
    """
    while True:
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.1, T - 0.1, segments - 1)), [T]])
        x = np.concatenate([[0.0], rng.uniform(-1.5, 1.5, segments - 1), [0.0]])
        speed = np.abs(np.diff(x)) / np.diff(t)
        if np.min(np.diff(t)) > 1e-3 and np.any(speed > 1.05) and np.all(np.abs(speed - 1) > 0.05):
            return np.column_stack([x, t])


def minkowski_inputs(spec: dict, seed: int) -> dict:
    """Seeded 1+1D polylines, first ``causal`` of them causal."""
    rng = np.random.default_rng(seed)
    paths = [
        _causal_polyline(rng, spec["segments"], spec["T"]) if k < spec["causal"]
        else _non_causal_polyline(rng, spec["segments"], spec["T"])
        for k in range(spec["paths"])
    ]
    causal = [k < spec["causal"] for k in range(spec["paths"])]
    return {"events": [p.tolist() for p in paths], "causal": causal}


def build_inputs(name: str, size: str, seed: int) -> dict:
    """Everything one operation of the workload reads, as plain data."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    spec = SPECS[size][name]
    inputs = {"name": name, "size": size, "seed": seed, "spec": spec}
    if name == "minkowski_pairs":
        inputs.update(minkowski_inputs(spec, seed))
    return inputs
