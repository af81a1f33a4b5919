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
distribution exists.  Every subcommand computes on the calling thread,
a sweep too: its cells run one after another.  main caps every OpenBLAS
loaded into its process at one thread, once, so that OpenBLAS's own
pool does not spin beside that one thread (see _cap_blas_threads).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys

# nothing here runs a pool; perfbench/tracer.py reads and swaps this name
# to trace one, and fails without it
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import lattice as lattice_mod
from .distances import MASS_VARIANTS, DistanceSpec
from .engine import (
    PathDistribution,
    kernel_windows,
    path_probabilities,
    unnormalized_probabilities,
)
from .errors import (
    AllZeroProbability,
    GridTooLarge,
    RealPathError,
    SpecViolation,
    integer,
    real,
)
from .lattice import LatticeSpec
from .minkowski import CausalClass, MinkowskiPath, classify
from .screen import ScreenSpec, evaluate_screen_model
from .toymodels import (
    M1Spec,
    M2Spec,
    M3Spec,
    beam_sweep,
    build_model,
    m1_closed_form,
    m2_closed_form,
)

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70  # AllZeroProbability: the postulate defines no ontology

MAX_SWEEP_CELLS = 10**4

# rows formatted per call by _csv_lines, bounding its temporaries
_CSV_ROWS = 1 << 14


# OpenBLAS's thread-count setter under the names builds export it by
_BLAS_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _openblas_paths(maps: str = "/proc/self/maps") -> list[str]:
    """Files of the OpenBLAS libraries mapped into this process, [] if unknown."""
    try:
        with open(maps) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = {parts[5] for parts in (line.split(maxsplit=5) for line in lines)
             if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()}
    return sorted(paths)


@functools.cache
def _cap_blas_threads():
    """Set every loaded OpenBLAS to one thread; the first call only.

    Each matrix product of a run (a dense tile times the amplitudes, a
    lattice transfer step) would otherwise hand off to OpenBLAS's pool,
    whose helpers spin-wait between calls and burn a core for the little
    work they get, although the run itself computes on one thread:
    without the cap, lattice_run's cpu_s went 0.051 -> 0.092 s and its
    solve_s 0.052 -> 0.066 s (6 alternating pairs), and lattice_sweep's
    cpu_s 0.020 -> 0.029 s (2-core host).  Without a loaded OpenBLAS
    nothing happens.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since, or not a library dlopen knows
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


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

    Stacks and formats _CSV_ROWS rows per call; "%.17g" % x prints
    exactly _fmt(x), and "%r" % x what json.dumps writes for a finite x.
    """
    parts = []
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        block = np.column_stack([c[lo : lo + _CSV_ROWS] for c in columns])
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _distribution_text(dist: PathDistribution, fmt: str) -> str:
    """The distribution as CSV, or as JSON as json.dumps writes it (its floats are finite)."""
    columns = (np.arange(1, dist.n_paths + 1), dist.probs, dist.smeared.real,
               dist.smeared.imag, dist.denom)
    if fmt == "csv":
        return (f"# norm_constant = {_fmt(dist.norm_constant)}\n"
                "index,prob,smeared_re,smeared_im,denom\n"
                + _csv_lines("%d,%.17g,%.17g,%.17g,%.17g\n", *columns))
    row = '{"index": %d, "prob": %r, "smeared_re": %r, "smeared_im": %r, "denom": %r}'
    # a separator after every row but the last, so that no slice copies the text
    rows = _csv_lines(row + ", ", *(c[:-1] for c in columns))
    last = _csv_lines(row, *(c[-1:] for c in columns))
    return f'{{"norm_constant": {json.dumps(dist.norm_constant)}, "paths": [{rows}{last}]}}\n'


def _ratios_text(spec: ScreenSpec, fmt: str) -> str:
    rows = evaluate_screen_model(spec).ratio_rows()
    return json.dumps({"ratios": rows}) + "\n" if fmt == "json" else _ratio_csv(rows)


def _ratio_csv(rows) -> str:
    keys = ("j", "k", "direct_ratio", "quantum_ratio", "rel_err")
    return "j,k,direct_ratio,quantum_ratio,rel_err\n" + _csv_lines(
        "%d,%d,%.17g,%.17g,%.17g\n", *([r[key] for r in rows] for key in keys)
    )


def _load_config(args) -> dict:
    if not args.config:
        raise ValueError("--config FILE is required for this subcommand")
    with open(args.config) as fh:
        return json.load(fh)


# per config-reading subcommand, the formats it writes and the top-level
# keys it reads: run and compare read a sweep config's base point, and
# _lattice_only refuses the lattice-only keys off a lattice model
_LATTICE_ONLY = ("weight", "distance_scale", "arm_phase")
_READS = {
    "run": (("csv", "json"), {"model", "distance", "format", "sweep", *_LATTICE_ONLY}),
    "sweep": (("csv",), {"model", "distance", "format", "sweep", "weight", "distance_scale"}),
    "compare": (("csv",), {"model", "distance", "format", "sweep", "case", *_LATTICE_ONLY}),
    "ratios": (("csv", "json"), {"model", "format", *_LATTICE_ONLY}),
}

_MODELS = {"M1": M1Spec, "M2": M2Spec, "M3": M3Spec, "lattice": LatticeSpec, "screen": ScreenSpec}

# the keys of a screen model's "screen_after" object and the fields they set
_SCREEN_AFTER = {"N": "n_after", "K": "k_after", "anchors": "anchors"}


def _threshold(value, what: str) -> float:
    """A curvature cutoff: any real number, +inf for none, but not NaN, which cuts every path."""
    threshold = real(value, what)
    if math.isnan(threshold):
        raise SpecViolation(f"{what} must not be NaN")
    return threshold


# each weight a config's weight object names: the lattice weight function,
# the one key beside "name" it reads and that key's cast
_WEIGHTS = {
    "uniform": (None, None, None),
    "curvature_cutoff": (lattice_mod.curvature_cutoff_weights, "threshold", _threshold),
    "corridor": (lattice_mod.corridor_weights, "margin", integer),
}


def _check_keys(data: dict, known, what: str):
    """Raise ValueError naming the keys of ``data`` outside ``known``."""
    unknown = ", ".join(map(repr, sorted(set(data) - set(known))))
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {unknown}")


def _cast(kind: str, key: str, value):
    """``value`` as a spec field of the declared type ``kind``, the annotation's text.

    A field of another type (a distance's name, D and rim setting) is
    passed as it is, for its class to check.
    """
    if kind == "M1Spec":
        return _spec(M1Spec, value, f"{key} object")
    if kind == "tuple[M3Spec, ...]":
        return tuple(_spec(M3Spec, v, f"{key} object") for v in value)
    if kind == "tuple":
        return tuple(value)
    cast = {"int": integer, "float": real}.get(kind)
    return value if cast is None else cast(value, key)


def _spec(cls, data: dict, what: str | None, extra=(), **given):
    """A ``cls`` from the keys of ``data`` that name its fields, each cast to its type.

    Any other key, bar ``extra``, is refused naming ``what``, or ignored
    when it is None (an argparse namespace).  ``given`` sets fields that
    ``data`` may not.
    """
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    if what is not None:
        _check_keys(data, {*types, *extra} - set(given), what)
    values = {k: v for k, v in data.items() if k in types} | given
    return cls(**{k: _cast(types[k], k, v) for k, v in values.items()})


def _screen_spec(data: dict, extra) -> ScreenSpec:
    """The spec of a screen model object, whose "screen_after" object sets three fields."""
    after = data["screen_after"]
    _check_keys(after, _SCREEN_AFTER, "screen_after object")
    rest = {k: v for k, v in data.items() if k != "screen_after"}
    return _spec(ScreenSpec, rest, "screen model object", extra,
                 **{f: after[k] for k, f in _SCREEN_AFTER.items()})


def _model_spec(model: dict):
    """The spec of a config's model object, read by the class its "model" kind names."""
    if not isinstance(model, dict) or "model" not in model:
        raise ValueError('config needs a "model" object with a "model" kind')
    kind = model["model"]
    cls = _MODELS.get(kind)
    if cls is None:
        raise SpecViolation(f"unknown model kind {kind!r}")
    if cls is ScreenSpec:
        return _screen_spec(model, extra=("model",))
    # "D" is the toy shorthand for a step distance
    return _spec(cls, model, f"{kind} model object", ("model", "D"))


def _format(config: dict, args, command: str) -> str:
    """The config's "format", else --format, else csv: one that ``command`` writes."""
    fmt = config.get("format", args.format or "csv")
    formats = _READS[command][0]
    if fmt not in formats:
        raise ValueError(f"{command} writes {' or '.join(map(str.upper, formats))} only, "
                         f"not format {fmt!r}")
    return fmt


def _distance_spec(config: dict, literal_log_half: bool) -> DistanceSpec:
    """The config's distance, carrying the run's --literal-log-half setting."""
    dist = config.get("distance")
    # toy-model shorthand: a "D" inside the model object means the step
    # distance of that half-width
    model = config.get("model")
    shorthand = isinstance(model, dict) and "D" in model
    if isinstance(dist, dict):
        if shorthand:
            raise ValueError('the model "D" and the "distance" object both set the '
                             'distance: give one of them')
    elif shorthand:
        dist = {"name": "step", "D": model["D"]}
    else:
        raise ValueError('config needs a "distance" object')
    name = dist.get("name")
    if "mass" in dist:
        raise ValueError(f"{name} distance takes no mass; {' and '.join(MASS_VARIANTS)} "
                         "read the lattice mass")
    return _spec(DistanceSpec, dist, f"{name} distance object", literal_log_half=literal_log_half)


def _weight(weight: dict):
    """The weight function a weight object names, None for uniform.

    A lattice weight function takes the sites, and the object's one key
    beside "name", when given, is bound to it; any other name or key
    raises ValueError.
    """
    name = weight.get("name", "uniform")
    if name not in _WEIGHTS:
        raise ValueError(f"unknown weight function {name!r}")
    func, key, cast = _WEIGHTS[name]
    _check_keys(weight, {"name", key}, f"weight {name!r}")
    if key in weight:
        return functools.partial(func, **{key: cast(weight[key], f"the {name} {key}")})
    return func


def _lattice_only(config: dict, spec, swept: str | None = None) -> dict:
    """The config's weight, distance_scale and arm_phase, as a lattice run takes them.

    Off a lattice model each, or a sweep over it (``swept``), is refused
    with SpecViolation, bar a uniform or null weight; so is any weight
    but uniform in a lattice sweep (``swept`` set), whose visibility
    fixes the corridor weight.  A weight object that _weight refuses, an
    unknown name or key, and a number that is not a JSON number raise
    ValueError.
    """
    weight = config.get("weight") or {}
    if not isinstance(weight, dict):
        raise ValueError('"weight" must be an object {"name": ...}')
    name = weight.get("name", "uniform")
    if not isinstance(spec, LatticeSpec):
        if name != "uniform":
            raise SpecViolation(f"weight {name!r} applies to lattice models only")
        for key in _LATTICE_ONLY[1:]:
            if key in config or key == swept:
                raise SpecViolation(f"{key} applies to lattice models only")
    elif swept is not None and name != "uniform":
        raise SpecViolation(f"weight {name!r} does not apply to a lattice sweep, "
                            "which fixes the corridor weight")
    return {"weight": _weight(weight),
            "distance_scale": real(config.get("distance_scale", 1.0), "distance_scale"),
            "arm_phase": real(config.get("arm_phase", 0.0), "arm_phase")}


def _refuse_literal_log_half(args):
    """The screen model keeps the rim weight 1/2 of its K=3 composite."""
    if args.literal_log_half:
        raise ValueError("literal_log_half applies to the step distance only, not the screen model")


def _summary_line(dist: PathDistribution) -> str:
    top = np.argsort(dist.probs)[::-1][:5] + 1
    return f"N={dist.n_paths} C={_fmt(dist.norm_constant)} top5={list(map(int, top))}"


def cmd_run(args) -> int:
    config = _load_config(args)
    fmt = _format(config, args, "run")
    spec = _model_spec(config.get("model"))
    lattice = _lattice_only(config, spec)
    if isinstance(spec, ScreenSpec):  # the run ratios makes, of the keys it reads
        _refuse_literal_log_half(args)
        _check_keys(config, _READS["ratios"][1], "run config of a screen model")
        text, summary = _ratios_text(spec, fmt), f"endpoints={spec.n_endpoints}"
    else:
        dspec = _distance_spec(config, args.literal_log_half)
        _check_keys(config, _READS["run"][1], "run config")
        if isinstance(spec, LatticeSpec):
            dist, _sites = lattice_mod.run_lattice_experiment(spec, dspec, **lattice)
        else:
            kernel_windows(dspec, spec.N)  # refused before the build
            dist = path_probabilities(build_model(spec), dspec)
        text, summary = _distribution_text(dist, fmt), _summary_line(dist)
    _write_text(args.output, text)
    print(summary)
    return EX_OK


# -- sweep ---------------------------------------------------------------------

def _sweep_cells(config: dict, args, name: str, values: list) -> tuple[list, dict]:
    """(model spec, distance spec, distance scale) of each cell, and the lattice routes.

    The config is read once, as the base point; each cell replaces the
    swept field: D of the distance, the distance_scale of a lattice, or a
    scalar field of the model spec.  Every cell is admitted before any
    is built or enumerated: a toy cell by its kernel windows, a lattice
    cell by its scale, its mass and its route's bound, admitted once per
    distinct (spec, distance) over the scales of its cells.  The routes
    map each such (spec, distance) to the route its admission chose
    (lattice.admit_scales), which its group then takes.
    """
    spec = _model_spec(config.get("model"))
    if isinstance(spec, ScreenSpec):
        raise SpecViolation("sweep does not apply to the screen model")
    dspec = _distance_spec(config, args.literal_log_half)
    scalars = {f.name: f.type for f in dataclasses.fields(spec) if f.type in ("int", "float")}
    if name not in {"D", "distance_scale", *scalars}:
        raise ValueError(f"sweep parameter {name!r} is not a spec field")
    lattice = _lattice_only(config, spec, name)
    _check_keys(config, _READS["sweep"][1], "sweep config")
    cells = []
    lattice_scales: dict = {}
    for v in values:
        cell = [spec, dspec, lattice["distance_scale"]]
        if name == "D":
            cell[1] = dataclasses.replace(dspec, D=v)
        elif name == "distance_scale":
            cell[2] = real(v, "a distance_scale sweep value")
        else:
            cell[0] = dataclasses.replace(spec, **{name: _cast(scalars[name], name, v)})
        if isinstance(spec, LatticeSpec):
            lattice_scales.setdefault((cell[0], cell[1]), []).append(cell[2])
        else:
            kernel_windows(cell[1], cell[0].N)  # refused before any build
        cells.append(cell)
    routes = {key: lattice_mod.admit_scales(*key, scales)  # before any enumeration
              for key, scales in lattice_scales.items()}
    return cells, routes


def _prepare_group(cells: list, routes: dict, indices: list):
    """cell(i) -> (visibility, block mass, norm constant) of the cells ``indices``.

    The cells share one model spec, and so one preparation: a lattice
    spec one enumeration and plan over the cells' distance scales
    (lattice.two_arm_sweep, on the route ``routes`` holds for it), a toy
    spec one build and prefix sum over the cells' distances
    (toymodels.beam_sweep).
    """
    spec, dspec, _ = cells[indices[0]]
    if isinstance(spec, LatticeSpec):
        two_arm = lattice_mod.two_arm_sweep(spec, dspec, [cells[i][2] for i in indices],
                                            routes[spec, dspec])

        def cell(i):
            vis, mass, dist = two_arm(cells[i][2])
            return vis, mass, dist.norm_constant
    else:
        beam = beam_sweep(spec, [cells[i][1] for i in indices])

        def cell(i):
            vis, mass, _probs, C = beam(cells[i][1])
            return vis, mass, C
    return cell


def cmd_sweep(args) -> int:
    config = _load_config(args)
    _format(config, args, "sweep")
    sweep = config.get("sweep")
    if not isinstance(sweep, dict) or "name" not in sweep or "values" not in sweep:
        raise ValueError('sweep config needs {"sweep": {"name":..., "values": [...]}}')
    _check_keys(sweep, ("name", "values"), "sweep object")
    name, values = sweep["name"], list(sweep["values"])
    if len(values) > MAX_SWEEP_CELLS:
        raise GridTooLarge(f"{len(values)} cells exceed {MAX_SWEEP_CELLS}")
    cells, routes = _sweep_cells(config, args, name, values)

    # cells with equal model specs form one group, which prepares once
    # (_prepare_group): a lattice sweep over distance_scale, a toy sweep
    # over D, or a repeated value.  A lattice sweep cannot vary its
    # distance, so its groups also share it.  The groups run one after
    # another, and a group's preparation is released before the next
    # one's is built
    groups: dict = {}
    for i, (spec, _, _) in enumerate(cells):
        groups.setdefault(spec, []).append(i)
    results: list = [None] * len(cells)
    for indices in groups.values():
        cell = _prepare_group(cells, routes, indices)
        for i in indices:
            results[i] = cell(i)
        del cell

    table = _csv_lines(f"{name},%.17g,%.17g,%.17g,%.17g\n",
                       list(map(float, values)), np.reshape(results, (len(values), 3)))
    _write_text(args.output, "param,value,visibility,block_mass,norm_constant\n" + table)
    print(f"sweep {name}: {len(values)} cells")
    return EX_OK


# -- compare -------------------------------------------------------------------

def cmd_compare(args) -> int:
    config = _load_config(args)
    _format(config, args, "compare")
    spec = _model_spec(config.get("model"))
    if not isinstance(spec, (M1Spec, M2Spec)):
        raise SpecViolation("compare applies to M1 and M2 models only")
    _lattice_only(config, spec)
    dspec = _distance_spec(config, args.literal_log_half)
    if dspec.name != "step":
        raise SpecViolation("closed forms are stated for the step distance")
    if "case" in config and isinstance(spec, M1Spec):
        raise SpecViolation("case applies to M2 models only")
    _check_keys(config, _READS["compare"][1], "compare config")
    kernel_windows(dspec, spec.N)  # refused before the build
    direct, _, _ = unnormalized_probabilities(build_model(spec), dspec)
    if isinstance(spec, M1Spec):
        status, closed = m1_closed_form(spec, dspec.D)
    else:
        status, closed = m2_closed_form(spec, dspec.D, config.get("case", "i"))
    index = np.arange(1, spec.N + 1)
    err = np.abs(direct - closed)
    uncovered = int(np.count_nonzero(status == "uncovered"))
    # one block per run of rows of equal status
    cuts = [0, *(np.flatnonzero(status[1:] != status[:-1]) + 1), spec.N]
    parts = ["index,direct,closed_form,abs_err,status\n"]
    for lo, hi in zip(cuts, cuts[1:]):
        columns = (index[lo:hi], direct[lo:hi], closed[lo:hi], err[lo:hi])
        if status[lo] == "uncovered":
            parts.append(_csv_lines("%d,%.17g,,,uncovered\n", *columns[:2]))
        else:
            parts.append(_csv_lines(f"%d,%.17g,%.17g,%.17g,{status[lo]}\n", *columns))
    _write_text(args.output, "".join(parts))
    max_abs = np.max(err[status != "uncovered"], initial=0.0)
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
    fmt = _format(config, args, "ratios")
    model = config.get("model", config)
    bare = model is config  # the screen object, beside the keys ratios reads
    spec = _screen_spec(model, extra=_READS["ratios"][1] if bare else ("model",))
    _lattice_only(config, spec)
    _refuse_literal_log_half(args)
    if not bare:
        _check_keys(config, _READS["ratios"][1], "ratios config")
    _write_text(args.output, _ratios_text(spec, fmt))
    print(f"endpoints={spec.n_endpoints}")
    return EX_OK


# -- lattice -------------------------------------------------------------------

def cmd_lattice(args) -> int:
    spec = _spec(LatticeSpec, vars(args), None)
    # a flag the chosen weight does not read is refused as its unknown key
    weight = {"name": args.weight} | {k: getattr(args, k) for k in ("threshold", "margin")
                                      if getattr(args, k) is not None}
    dist, sites = lattice_mod.run_lattice_experiment(
        spec, DistanceSpec(args.distance, literal_log_half=args.literal_log_half),
        weight=_weight(weight), distance_scale=args.distance_scale,
    )
    _write_text(args.output, _distribution_text(dist, args.format or "csv"))
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
    lat.add_argument("--threshold", type=float,
                     help="curvature_cutoff threshold (default 1)")
    lat.add_argument("--margin", type=int, help="corridor margin (default 1)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _cap_blas_threads()
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
