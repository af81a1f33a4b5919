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
from .distances import DistanceSpec, index_distance_matrix
from .engine import (
    PathDistribution,
    Prefix,
    _prefix,
    dense_smeared,
    distribution_from_sums,
    path_probabilities,
    step_smeared,
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


def _refuse_lattice_fields(config: dict):
    """Raise SpecViolation for what only a lattice model reads.

    That is a weight other than uniform, or a distance_scale.
    """
    _require_uniform(config)
    if "distance_scale" in config:
        raise SpecViolation("distance_scale applies to lattice models only")


def _refuse_literal_log_half(args):
    """The screen model keeps the rim weight 1/2 of its K=3 composite."""
    if args.literal_log_half:
        raise ValueError("literal_log_half applies to the step distance only, not the screen model")


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
        _refuse_lattice_fields(config)
    if isinstance(spec, ScreenSpec):
        _refuse_literal_log_half(args)
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


def _flipped_region(spec) -> tuple[int, np.ndarray]:
    """0-based start of the last region and its amplitudes turned by pi.

    The expression build_m3 evaluates for theta + pi, so the bits are
    those of a full build of the flipped spec; checked for unit modulus
    as a build is.
    """
    M, K, th = spec.as_m3().regions[-1]
    region = np.full(K + 1, np.exp(-1j * (th + math.pi)))
    return M - 1, PathEnsemble(region).amplitudes


def _flipped_prefix(spec, prefix: Prefix, D: int, lo: int, hi: int) -> Prefix:
    """What windows of radius D over rows lo..hi-1 read of ``prefix``, flipped.

    ``prefix`` holds the sums of the spec's own amplitudes; the result
    holds those of the spec with the last region's phase turned by pi.
    Sums up to P(M-1), M the region's 1-based start, do not see the flip
    and are copied.  The later ones are rebuilt from P(M-1) by one cumsum
    over the flipped region and the alternating run after it (-1, +1,
    ...), the values build_m3 writes there, so the bits are those of a
    full flipped build's prefix.  The rows must start no later than the
    region, as a beam block's rows do.
    """
    n = prefix.n
    D = min(D, n)  # the windows clip their radius to n
    origin = D - lo  # out[origin + k] = P(k) for k in [lo - D, hi + D]
    out = prefix.sums[prefix.origin + lo - D : prefix.origin + hi + D + 1].copy()
    start, region = _flipped_region(spec)
    run = out[origin + start : origin + min(n, hi + D) + 1]
    tail = run[1:]
    tail[: region.size] = region
    tail[region.size :: 2] = -1.0
    tail[region.size + 1 :: 2] = 1.0
    np.cumsum(run, out=run)
    out[origin + n + 1 :] = run[-1]  # the right pad copies P(n)
    return Prefix(out, origin, n)


def _toy_prefix(spec, pad: int) -> Prefix:
    """The spec's amplitudes built once and prefix-summed, padded by pad."""
    return _prefix(build_model(spec).amplitudes, pad)


def _toy_experiment(
    spec, dspec: DistanceSpec, prefix: Prefix | None = None
) -> tuple[float, float, PathDistribution]:
    """(visibility, block mass, distribution) of one toy sweep cell.

    The visibility compares the unnormalized beam-neighborhood masses at
    the spec's own phases and with the last region's phase flipped by pi;
    the distribution is the one ``run`` gives at the spec's own phases,
    and the block mass is its share on the beam neighborhood.

    Under the step distance, ``prefix`` is the padded prefix sum of the
    spec's amplitudes (_toy_prefix, padded by at least dspec.D), which
    the cells of a sweep over D share; None prepares the cell's own.  The
    spec's phases take one banded pass over all N rows.  The flipped
    setting only feeds its mass on the beam block, so it is smeared over
    the block rows alone, from _flipped_prefix; its denominators are the
    window counts, the same as at the spec's phases, and are reused.

    Other index distances take the dense route: one matrix, and one
    dense_smeared call over both phase vectors, which multiplies each
    block of exp(-d) by each vector, so both get the bits of a call of
    their own.
    """
    if dspec.name == "step":
        if prefix is None:
            prefix = _toy_prefix(spec, dspec.D)
        smeared, denom = step_smeared(prefix, dspec)
        lo, hi = _block_range_indices(spec, dspec.D)
        flipped = _flipped_prefix(spec, prefix, dspec.D, lo - 1, hi)
        flipped_block, _counts = step_smeared(flipped, dspec, lo - 1, hi)
    else:
        amps = build_model(spec).amplitudes
        # refuses a distance without an index window
        matrix = index_distance_matrix(dspec, spec.N)
        start, region = _flipped_region(spec)
        flipped = amps.copy()
        flipped[start : start + region.size] = region
        (smeared, flipped_smeared), denom = dense_smeared([amps, flipped], matrix)
        del matrix, amps, flipped
        lo, hi = _block_range_indices(spec, dspec.D)
        flipped_block = flipped_smeared[lo - 1 : hi]
    block = slice(lo - 1, hi)
    p_minus = float(np.sum(weighted_probabilities(flipped_block, denom[block])))
    p_plus = float(np.sum(weighted_probabilities(smeared[block], denom[block])))
    vis = (
        abs(p_plus - p_minus) / (p_plus + p_minus)
        if (p_plus + p_minus) > 0
        else 0.0
    )
    dist = distribution_from_sums(smeared, denom)
    return vis, float(np.sum(dist.probs[block])), dist


def _sweep_specs(config: dict, args) -> tuple:
    """(model spec, distance spec) of one sweep cell, refusing what cannot apply."""
    spec = _model_spec(config)
    if isinstance(spec, ScreenSpec):
        raise SpecViolation("sweep does not apply to the screen model")
    if isinstance(spec, lattice_mod.LatticeSpec):
        _require_uniform(config, "does not apply to a lattice sweep, which fixes the corridor weight")
    else:
        _refuse_lattice_fields(config)
    return spec, _distance_spec(config, args)


def _sweep_cell(config: dict, spec, dspec: DistanceSpec, prefix: Prefix | None = None) -> dict:
    """visibility / block mass / norm constant summaries for one cell."""
    if isinstance(spec, lattice_mod.LatticeSpec):
        scale = float(config.get("distance_scale", 1.0))
        vis, dist, sites = lattice_mod.two_arm_experiment(
            spec, dspec, distance_scale=scale
        )
        # block mass: how much unweighted probability sits on corridor paths
        w = lattice_mod.corridor_weights(sites)
        mass = float(np.sum(dist.probs[w > 0]))
        return {"visibility": vis, "block_mass": mass, "norm_constant": dist.norm_constant}
    vis, mass, dist = _toy_experiment(spec, dspec, prefix)
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
    specs = [_sweep_specs(c, args) for c in cells]

    # toy cells under the step distance with equal model specs (a sweep
    # over D, or a repeated value) share one build and one prefix sum,
    # padded for the widest of them; one group's prefix is alive at a
    # time, and every other cell prepares its own inside its task
    groups: dict = {}
    for i, (spec, dspec) in enumerate(specs):
        if not isinstance(spec, lattice_mod.LatticeSpec) and dspec.name == "step":
            groups.setdefault(spec, []).append(i)
    shared = [g for g in groups.values() if len(g) > 1]
    alone = sorted(set(range(len(cells))).difference(*shared))
    results: list = [None] * len(cells)

    def run(pool, indices, prefix=None):
        done = pool.map(lambda i: _sweep_cell(cells[i], *specs[i], prefix), indices)
        for i, r in zip(indices, done):
            results[i] = r

    workers = int(os.environ.get("REALPATH_THREADS", "0")) or min(
        os.cpu_count() or 1, max(len(cells), 1)
    )
    if cells:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for indices in shared:
                pad = max(specs[i][1].D for i in indices)
                run(pool, indices, pool.submit(_toy_prefix, specs[indices[0]][0], pad).result())
            run(pool, alone)

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
    _refuse_lattice_fields(config)
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
    _refuse_lattice_fields(config)
    _refuse_literal_log_half(args)
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
