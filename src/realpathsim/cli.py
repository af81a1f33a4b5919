"""Command-line harness.

Subcommands: run (one model -> per-path distribution or detection
ratios), sweep (parameter grid -> long-format CSV of visibility /
block-mass summaries), compare (direct evaluation vs closed-form regime
formulas for M1/M2), classify (causal class of a path file), ratios
(screen-model detection ratios), lattice (lattice experiment plus a
paths file).

All numeric output uses 17-significant-digit floats, so identical
configs produce byte-identical files.  Exit codes follow sysexits:
64 bad config, 65 spec violation / bad data, 70 no probability
distribution exists.  REALPATH_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import lattice as lattice_mod
from .distances import DistanceSpec
from .engine import (
    PathDistribution,
    distribution_from_sums,
    path_probabilities,
    smeared_components,
    unnormalized_probabilities,
    weighted_probabilities,
)
from .errors import (
    AllZeroProbability,
    GridTooLarge,
    RealPathError,
    SpecViolation,
)
from .minkowski import CausalClass, MinkowskiPath, classify
from .paths import PathEnsemble
from .screen import ScreenSpec, evaluate_screen_model
from .toymodels import (
    M1Spec,
    M2Spec,
    build_model,
    m1_closed_form,
    m2_closed_form,
    parse_model_spec,
)

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70  # AllZeroProbability: the postulate defines no ontology

MAX_SWEEP_CELLS = 10**4

# rows formatted per call by _csv_lines, bounding its temporaries
_CSV_ROWS = 1 << 14


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_lines(row: str, *columns) -> str:
    """The %-format ``row`` applied to each row of the stacked columns.

    Formats _CSV_ROWS rows per call; "%.17g" % x prints exactly _fmt(x).
    """
    table = np.column_stack(columns)
    parts = []
    for lo in range(0, len(table), _CSV_ROWS):
        block = table[lo : lo + _CSV_ROWS]
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _distribution_csv(dist: PathDistribution) -> str:
    return (
        f"# norm_constant = {_fmt(dist.norm_constant)}\n"
        "index,prob,smeared_re,smeared_im,denom\n"
    ) + _csv_lines(
        "%d,%.17g,%.17g,%.17g,%.17g\n",
        np.arange(1, dist.n_paths + 1),
        dist.probs,
        dist.smeared.real,
        dist.smeared.imag,
        dist.denom,
    )


def _distribution_json(dist: PathDistribution) -> str:
    rows = [
        {
            "index": i + 1,
            "prob": float(dist.probs[i]),
            "smeared_re": float(dist.smeared[i].real),
            "smeared_im": float(dist.smeared[i].imag),
            "denom": float(dist.denom[i]),
        }
        for i in range(dist.n_paths)
    ]
    return json.dumps({"norm_constant": float(dist.norm_constant), "paths": rows}) + "\n"


def _ratios_text(spec: ScreenSpec, fmt: str) -> str:
    rows = evaluate_screen_model(spec).ratio_rows()
    return json.dumps({"ratios": rows}) + "\n" if fmt == "json" else _ratio_csv(rows)


def _ratio_csv(rows) -> str:
    lines = ["j,k,direct_ratio,quantum_ratio,rel_err"]
    for r in rows:
        lines.append(
            f"{r['j']},{r['k']},{_fmt(r['direct_ratio'])},"
            f"{_fmt(r['quantum_ratio'])},{_fmt(r['rel_err'])}"
        )
    return "\n".join(lines) + "\n"


def _load_config(args) -> dict:
    if not args.config:
        raise ValueError("--config FILE is required for this subcommand")
    with open(args.config) as fh:
        return json.load(fh)


def _model_spec(config: dict):
    model = config.get("model")
    if not isinstance(model, dict) or "model" not in model:
        raise ValueError('config needs a "model" object with a "model" kind')
    kind = model["model"]
    if kind in ("M1", "M2", "M3"):
        return parse_model_spec(model)
    if kind == "lattice":
        return lattice_mod.LatticeSpec(
            steps=int(model["steps"]),
            extent=int(model["extent"]),
            start=int(model["start"]),
            end=int(model["end"]),
            mass=float(model.get("mass", 1.0)),
            hop=int(model.get("hop", 1)),
        )
    if kind == "screen":
        return ScreenSpec.from_dict(model)
    raise ValueError(f"unknown model kind {kind!r}")


def _distance_spec(config: dict, args) -> DistanceSpec:
    """The config's distance, carrying the run's --literal-log-half setting."""
    dist = config.get("distance")
    if not isinstance(dist, dict):
        # toy-model shorthand: a "D" inside the model object means the
        # step distance of that half-width
        model = config.get("model")
        if isinstance(model, dict) and "D" in model:
            dist = {"name": "step", "D": model["D"]}
        else:
            raise ValueError('config needs a "distance" object')
    spec = DistanceSpec.from_dict(dist)
    return dataclasses.replace(spec, literal_log_half=args.literal_log_half)


def _weight(config: dict) -> dict:
    """The config's weight object, {} for the plain postulate."""
    weight = config.get("weight") or {}
    if not isinstance(weight, dict):
        raise ValueError('"weight" must be an object {"name": ...}')
    return weight


def _require_uniform(config: dict, reason: str = "applies to lattice models only"):
    """Raise SpecViolation, saying ``reason``, for a weight that cannot apply."""
    name = _weight(config).get("name", "uniform")
    if name != "uniform":
        raise SpecViolation(f"weight {name!r} {reason}")


def _summary_line(dist: PathDistribution) -> str:
    top = np.argsort(dist.probs)[::-1][:5] + 1
    return (
        f"N={dist.n_paths} C={_fmt(dist.norm_constant)} "
        f"top5={list(map(int, top))}"
    )


def _run_once(config: dict, args) -> tuple[str, str]:
    """(output text, summary line) for one resolved config."""
    spec = _model_spec(config)
    fmt = config.get("format", args.format or "csv")
    if not isinstance(spec, lattice_mod.LatticeSpec):
        _require_uniform(config)
    if isinstance(spec, ScreenSpec):
        return _ratios_text(spec, fmt), f"endpoints={spec.n_endpoints}"
    if isinstance(spec, lattice_mod.LatticeSpec):
        dist, _sites = lattice_mod.run_lattice_experiment(
            spec,
            _distance_spec(config, args),
            weight=_weight(config),
            distance_scale=float(config.get("distance_scale", 1.0)),
            arm_phase=float(config.get("arm_phase", 0.0)),
        )
    else:
        dist = path_probabilities(build_model(spec), _distance_spec(config, args))
    text = _distribution_json(dist) if fmt == "json" else _distribution_csv(dist)
    return text, _summary_line(dist)


def cmd_run(args) -> int:
    config = _load_config(args)
    text, summary = _run_once(config, args)
    _write_text(args.output, text)
    print(summary)
    return EX_OK


# -- sweep ---------------------------------------------------------------------

def _block_range_indices(spec, D: int) -> tuple[int, int]:
    first, last = spec.as_m3().block_range
    return max(1, first - D), min(spec.N, last + D)


def _flipped_prefix(spec, amps: np.ndarray, L: int) -> np.ndarray:
    """The first L amplitudes with the last region's phase flipped by pi.

    Only the last region differs from the spec's own amplitudes; it gets
    the expression build_m3 evaluates for theta + pi, so the bits are
    those of a full build of the flipped spec.
    """
    flipped = amps[:L].copy()
    M, K, th = spec.as_m3().regions[-1]
    flipped[M - 1 : M + K] = np.exp(-1j * (th + math.pi))
    return flipped


def _toy_experiment(
    spec, dspec: DistanceSpec
) -> tuple[float, float, PathDistribution]:
    """(visibility, block mass, distribution): one build, two passes.

    The visibility compares the unnormalized beam-neighborhood masses at
    the spec's own phases and with the last region's phase flipped by pi;
    the distribution is the one ``run`` gives at the spec's own phases,
    and the block mass is its share on the beam neighborhood.

    The flipped setting only feeds its mass on the beam block [lo, hi],
    whose step windows end before index hi + D, and a prefix's running
    sums are the first entries of the full ones; so it is evaluated on
    the first min(N, hi + D) amplitudes only (all N for other index
    distances, whose windows are unbounded) and reduced to its mass
    before the full pass.
    """
    def block_mass(smeared, denom):
        return float(np.sum(weighted_probabilities(smeared[block], denom[block])))

    ensemble = build_model(spec)
    L = spec.N
    if dspec.name == "step":
        L = min(L, _block_range_indices(spec, dspec.D)[1] + dspec.D)
    flipped = PathEnsemble(_flipped_prefix(spec, ensemble.amplitudes, L))
    smeared, denom = smeared_components(flipped, dspec)
    # after the engine, which rejects a distance without an index window
    lo, hi = _block_range_indices(spec, dspec.D)
    block = slice(lo - 1, hi)
    p_minus = block_mass(smeared, denom)
    del flipped, smeared, denom
    smeared, denom = smeared_components(ensemble, dspec)
    p_plus = block_mass(smeared, denom)
    vis = (
        abs(p_plus - p_minus) / (p_plus + p_minus)
        if (p_plus + p_minus) > 0
        else 0.0
    )
    dist = distribution_from_sums(smeared, denom)
    return vis, float(np.sum(dist.probs[block])), dist


def _sweep_cell(config: dict, args) -> dict:
    """visibility / block mass / norm constant summaries for one cell."""
    spec = _model_spec(config)
    if isinstance(spec, lattice_mod.LatticeSpec):
        _require_uniform(config, "does not apply to a lattice sweep, which fixes the corridor weight")
        dspec = _distance_spec(config, args)
        scale = float(config.get("distance_scale", 1.0))
        vis, dist, sites = lattice_mod.two_arm_experiment(
            spec, dspec, distance_scale=scale
        )
        # block mass: how much unweighted probability sits on corridor paths
        w = lattice_mod.corridor_weights(sites)
        mass = float(np.sum(dist.probs[w > 0]))
        return {"visibility": vis, "block_mass": mass, "norm_constant": dist.norm_constant}
    if isinstance(spec, ScreenSpec):
        raise SpecViolation("sweep does not apply to the screen model")
    _require_uniform(config)
    vis, mass, dist = _toy_experiment(spec, _distance_spec(config, args))
    return {"visibility": vis, "block_mass": mass, "norm_constant": dist.norm_constant}


_SWEEPABLE_FIELDS = {
    "M1": {"N", "M", "K"},
    "M2": {"N", "M0", "K0", "M1", "K1", "theta0", "theta1"},
    "M3": {"N"},
    "lattice": {"steps", "extent", "start", "end", "mass", "hop"},
    "screen": set(),
}


def _apply_sweep_value(config: dict, name: str, value):
    out = json.loads(json.dumps(config))  # deep copy
    model = out.get("model", {})
    kind = model.get("model") if isinstance(model, dict) else None
    if name == "D":
        out.setdefault("distance", {})["D"] = value
    elif name == "distance_scale":
        out["distance_scale"] = value
    elif name in _SWEEPABLE_FIELDS.get(kind, set()):
        model[name] = value
    else:
        raise ValueError(f"sweep parameter {name!r} is not a spec field")
    return out


def cmd_sweep(args) -> int:
    config = _load_config(args)
    sweep = config.get("sweep")
    if not isinstance(sweep, dict) or "name" not in sweep or "values" not in sweep:
        raise ValueError('sweep config needs {"sweep": {"name":..., "values": [...]}}')
    name, values = sweep["name"], list(sweep["values"])
    if len(values) > MAX_SWEEP_CELLS:
        raise GridTooLarge(f"{len(values)} cells exceed {MAX_SWEEP_CELLS}")
    cells = [_apply_sweep_value(config, name, v) for v in values]

    workers = int(os.environ.get("REALPATH_THREADS", "0")) or min(
        os.cpu_count() or 1, max(len(cells), 1)
    )
    if cells:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _sweep_cell(c, args), cells))
    else:
        results = []

    lines = ["param,value,visibility,block_mass,norm_constant"]
    for v, r in zip(values, results):
        lines.append(
            f"{name},{_fmt(v)},{_fmt(r['visibility'])},"
            f"{_fmt(r['block_mass'])},{_fmt(r['norm_constant'])}"
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    print(f"sweep {name}: {len(values)} cells")
    return EX_OK


# -- compare -------------------------------------------------------------------

def cmd_compare(args) -> int:
    config = _load_config(args)
    spec = _model_spec(config)
    if not isinstance(spec, (M1Spec, M2Spec)):
        raise SpecViolation("compare applies to M1 and M2 models only")
    _require_uniform(config)
    dspec = _distance_spec(config, args)
    if dspec.name != "step":
        raise SpecViolation("closed forms are stated for the step distance")
    direct, _, _ = unnormalized_probabilities(build_model(spec), dspec)
    case = config.get("case", "i")
    rows = []
    max_abs = 0.0
    uncovered = 0
    for i in range(1, spec.N + 1):
        if isinstance(spec, M1Spec):
            cf = m1_closed_form(i, spec, dspec.D)
        else:
            cf = m2_closed_form(i, spec, dspec.D, case)
        if cf.status == "uncovered":
            uncovered += 1
            rows.append(f"{i},{_fmt(direct[i-1])},,,uncovered")
        else:
            err = abs(direct[i - 1] - cf.value)
            max_abs = max(max_abs, err)
            rows.append(
                f"{i},{_fmt(direct[i-1])},{_fmt(cf.value)},{_fmt(err)},{cf.status}"
            )
    header = "index,direct,closed_form,abs_err,status"
    _write_text(args.output, header + "\n" + "\n".join(rows) + "\n")
    print(
        f"compared {spec.N - uncovered} indices, {uncovered} uncovered, "
        f"max_abs_err={_fmt(max_abs)}"
    )
    return EX_OK


# -- classify ------------------------------------------------------------------

def cmd_classify(args) -> int:
    with open(args.pathfile) as fh:
        path = MinkowskiPath.from_json(fh.read())
    label = classify(path)
    print(label.value.replace("_", "-"))
    return {
        CausalClass.CAUSAL: 0,
        CausalClass.NON_CAUSAL: 1,
        CausalClass.ANTI_CAUSAL: 2,
    }[label]


# -- ratios --------------------------------------------------------------------

def cmd_ratios(args) -> int:
    config = _load_config(args)
    spec = ScreenSpec.from_dict(config.get("model", config))
    _require_uniform(config)
    _write_text(args.output, _ratios_text(spec, config.get("format", args.format or "csv")))
    print(f"endpoints={spec.n_endpoints}")
    return EX_OK


# -- lattice -------------------------------------------------------------------

def cmd_lattice(args) -> int:
    spec = lattice_mod.LatticeSpec(
        steps=args.steps,
        extent=args.extent,
        start=args.start,
        end=args.end,
        mass=args.mass,
        hop=args.hop,
    )
    weight = {"name": args.weight, "threshold": args.threshold, "margin": args.margin}
    dist, sites = lattice_mod.run_lattice_experiment(
        spec, DistanceSpec(args.distance, literal_log_half=args.literal_log_half),
        weight=weight,
        distance_scale=args.distance_scale,
    )
    fmt = args.format or "csv"
    text = _distribution_json(dist) if fmt == "json" else _distribution_csv(dist)
    _write_text(args.output, text)
    if args.output and args.output != "-":
        header = "index," + ",".join(f"x{t}" for t in range(spec.steps + 1))
        rows = _csv_lines(
            ",".join(["%d"] * (spec.steps + 2)) + "\n",
            np.arange(1, len(sites) + 1),
            sites,
        )
        _write_text(args.output + ".paths.csv", header + "\n" + rows)
    print(_summary_line(dist))
    return EX_OK


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool = False):
    """Global flags, attachable before or after the subcommand.

    Subparsers get SUPPRESS defaults so an omitted flag does not clobber
    a value parsed at the top level.
    """
    d = argparse.SUPPRESS if suppress else None
    flag = argparse.SUPPRESS if suppress else False
    parser.add_argument("--config", default=d, help="JSON config file")
    parser.add_argument("--output", default=d, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=d,
                        help="output format")
    parser.add_argument("--literal-log-half", action="store_true", default=flag,
                        help="use the literal log(1/2) step value at |i-j| = D "
                             "(weight 2); step distance only")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="realpathsim",
        description="Path-probability simulator for discrete path ensembles.",
    )
    _add_global_flags(p)
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        _add_global_flags(sp, suppress=True)
        sp.set_defaults(func=func)
        return sp

    add_command("run", "evaluate one model", cmd_run)
    add_command("sweep", "parameter grid sweep", cmd_sweep)
    add_command("compare", "direct vs closed form", cmd_compare)

    c = add_command("classify", "causal class of a path file", cmd_classify)
    c.add_argument("pathfile", help="JSON path file {\"events\": [[x,t],...]}")

    add_command("ratios", "screen-model detection ratios", cmd_ratios)

    lat = add_command("lattice", "lattice experiment", cmd_lattice)
    lat.add_argument("--steps", type=int, required=True)
    lat.add_argument("--extent", type=int, required=True)
    lat.add_argument("--start", type=int, default=0)
    lat.add_argument("--end", type=int, default=0)
    lat.add_argument("--mass", type=float, default=1.0)
    lat.add_argument("--hop", type=int, default=1)
    lat.add_argument("--distance", default="max_sep")
    lat.add_argument(
        "--weight", default="uniform",
        choices=("uniform", "curvature_cutoff", "corridor"),
    )
    lat.add_argument("--distance-scale", type=float, default=1.0)
    lat.add_argument("--threshold", type=float, default=1.0,
                     help="curvature_cutoff threshold")
    lat.add_argument("--margin", type=int, default=1, help="corridor margin")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_USAGE
    except AllZeroProbability as exc:
        print(f"no distribution: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except RealPathError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
