"""Path representations shared by every model in the package.

Three kinds of object live here:

* ``PathEnsemble`` -- a finite indexed family of paths carrying unit-modulus
  complex amplitudes.  Indices run 1..N in the order given, the convention
  used throughout for toy ensembles.
* ``SpacetimePath`` -- a polyline (x(t), t) in Galilean spacetime with a
  particle mass attached, the geometric object the distance catalog acts on.
* ``CompositePath`` -- a product (simultaneous subsystems) or sequence
  (temporal concatenation) of component paths.

Units are natural (hbar = c = 1); the amplitude convention is
A(P) = exp(-i S(P)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSegment,
    EmptyEnsemble,
    NonUnitAmplitude,
    TimeMismatch,
)

UNIT_MODULUS_ATOL = 1e-12
# Construction inputs get a looser gate, then are renormalized onto the
# unit circle so the stored invariant is the tight one.
UNIT_MODULUS_INPUT_ATOL = 1e-9


def _require_unit_modulus(amps: np.ndarray, atol: float):
    """Raise NonUnitAmplitude at the first A with ||A| - 1| > atol or NaN."""
    dev = np.abs(amps)
    dev -= 1.0
    np.abs(dev, out=dev)
    ok = dev <= atol
    if not ok.all():
        i = int(np.argmin(ok))
        raise NonUnitAmplitude(i + 1, complex(amps[i]))


@dataclass(frozen=True)
class PathEnsemble:
    """Finite set of paths with unit-modulus amplitudes, indexed 1..N."""

    amplitudes: np.ndarray
    endpoint_tag: str = "B"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise EmptyEnsemble("ensemble needs a non-empty 1-d amplitude list")
        _require_unit_modulus(amps, UNIT_MODULUS_ATOL)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_paths(self) -> int:
        return int(self.amplitudes.size)

    @property
    def indices(self) -> np.ndarray:
        """1-based path indices, matching the labelling P_1 .. P_N."""
        return np.arange(1, self.n_paths + 1)

    def amplitude(self, index: int) -> complex:
        """Amplitude of path P_index (1-based)."""
        return complex(self.amplitudes[index - 1])

    def to_json(self) -> str:
        return json.dumps(
            {"amplitudes": [[z.real, z.imag] for z in self.amplitudes]}
        )

    @classmethod
    def from_json(cls, text: str, endpoint_tag: str = "B") -> "PathEnsemble":
        data = json.loads(text)
        pairs = data["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        return cls(amps, endpoint_tag=endpoint_tag)


def make_indexed_ensemble(
    amplitudes: Sequence[complex], endpoint_tag: str = "B"
) -> PathEnsemble:
    """Build an ensemble from a list of unit-modulus amplitudes.

    Entries must be of modulus 1 within 1e-9; they are projected exactly
    onto the unit circle before storage.  Raises EmptyEnsemble or
    NonUnitAmplitude (reporting the first offending 1-based index).
    """
    amps = np.asarray(list(amplitudes), dtype=np.complex128)
    if amps.size == 0:
        raise EmptyEnsemble("no amplitudes given")
    _require_unit_modulus(amps, UNIT_MODULUS_INPUT_ATOL)
    return PathEnsemble(amps / np.abs(amps), endpoint_tag=endpoint_tag)


@dataclass(frozen=True)
class SpacetimePath:
    """Polyline (x(t), t) with non-decreasing t; x may be 1-d or a vector.

    ``events`` has shape (n_events, ndim+1); the last column is t and the
    leading columns are spatial coordinates.
    """

    events: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        if ev.ndim == 1:
            ev = ev.reshape(1, -1)
        if ev.ndim != 2 or ev.shape[0] < 1 or ev.shape[1] < 2:
            raise ValueError("events must be an (n, ndim+1) array with n >= 1")
        if np.any(np.diff(ev[:, -1]) < 0):
            raise ValueError("times must be non-decreasing along the path")
        object.__setattr__(self, "events", ev)

    @property
    def times(self) -> np.ndarray:
        return self.events[:, -1]

    @property
    def positions(self) -> np.ndarray:
        return self.events[:, :-1]

    @property
    def start(self) -> np.ndarray:
        return self.events[0]

    @property
    def end(self) -> np.ndarray:
        return self.events[-1]

    def time_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def position_at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation of position at times t (within the span)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cols = [
            np.interp(t, self.times, self.positions[:, k])
            for k in range(self.positions.shape[1])
        ]
        return np.stack(cols, axis=-1)

    def to_json(self) -> str:
        return json.dumps(
            {"events": self.events.tolist(), "mass": float(self.mass)}
        )

    @classmethod
    def from_json(cls, text: str) -> "SpacetimePath":
        data = json.loads(text)
        return cls(np.asarray(data["events"], dtype=float), float(data.get("mass", 1.0)))


def free_action(path: SpacetimePath, mass: float | None = None) -> float:
    """Discrete free-particle action S = sum_segments m (dx)^2 / (2 dt).

    Endpoint kinetic discretization on the polyline's own segments; the
    matching amplitude is exp(-i S).  Raises DegenerateSegment if any
    segment has dt <= 0.
    """
    if mass is None:
        mass = path.mass
    if path.events.shape[0] < 2:
        raise DegenerateSegment("action needs at least two events")
    dt = np.diff(path.times)
    if np.any(dt <= 0):
        raise DegenerateSegment("segment with non-positive duration")
    dx2 = np.sum(np.diff(path.positions, axis=0) ** 2, axis=1)
    return float(np.sum(mass * dx2 / (2.0 * dt)))


def amplitude_for(path: SpacetimePath, mass: float | None = None) -> complex:
    """exp(-i S) for the discrete free action."""
    return complex(np.exp(-1j * free_action(path, mass)))


@dataclass(frozen=True)
class CompositePath:
    """Product (kind='product') or sequence (kind='sequence') of paths."""

    kind: str
    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("product", "sequence"):
            raise ValueError(f"unknown composite kind {self.kind!r}")
        object.__setattr__(self, "components", tuple(self.components))

    def time_span(self) -> tuple[float, float] | None:
        spans = [_span_of(c) for c in self.components]
        if any(s is None for s in spans):
            return None
        if self.kind == "product":
            return spans[0]
        return spans[0][0], spans[-1][1]


def _span_of(component) -> tuple[float, float] | None:
    if isinstance(component, (SpacetimePath, CompositePath)):
        return component.time_span()
    return None


_SPAN_ATOL = 1e-9


def compose(kind: str, components: Sequence) -> CompositePath:
    """Build a CompositePath, validating component time spans when known.

    Product components must span identical time intervals; sequence
    components must abut (end of one = start of next).  Components without
    a time span (abstract labels) skip the check.
    """
    comps = list(components)
    if not comps:
        raise TimeMismatch("composite needs at least one component")
    spans = [_span_of(c) for c in comps]
    known = [s for s in spans if s is not None]
    if len(known) == len(comps):
        if kind == "product":
            t0, t1 = known[0]
            for s in known[1:]:
                if abs(s[0] - t0) > _SPAN_ATOL or abs(s[1] - t1) > _SPAN_ATOL:
                    raise TimeMismatch(
                        f"product components span {known[0]} vs {s}"
                    )
        elif kind == "sequence":
            for a, b in zip(known, known[1:]):
                if abs(a[1] - b[0]) > _SPAN_ATOL:
                    raise TimeMismatch(
                        f"sequence gap: component ends at {a[1]}, next starts at {b[0]}"
                    )
    return CompositePath(kind, tuple(comps))
