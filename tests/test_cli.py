"""Command-line harness: formats, determinism, exit codes."""

import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from realpathsim import cli
from realpathsim.cli import main
from realpathsim.distances import DistanceSpec

# golden outputs of the lattice and banded-route commands, checked byte
# for byte
DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main(list(args))


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


M1_CONFIG = {
    "model": {"model": "M1", "N": 24, "M": 9, "K": 3},
    "distance": {"name": "step", "D": 3},
}


def test_run_m1_csv(tmp_path, capsys):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# norm_constant = ")
    assert lines[1] == "index,prob,smeared_re,smeared_im,denom"
    row5 = lines[2 + 4].split(",")
    assert row5[0] == "5" and float(row5[1]) == 0.0   # Prob(P_5) = 0
    summary = capsys.readouterr().out
    assert "N=24" in summary and "top5=" in summary


def test_run_json_format(tmp_path):
    cfg = write(tmp_path / "m1.json", {**M1_CONFIG, "format": "json"})
    out = tmp_path / "out.json"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 0
    data = json.loads(out.read_text())
    assert data["paths"][4]["prob"] == 0.0
    assert len(data["paths"]) == 24


def test_run_deterministic_byte_identical(tmp_path):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["--config", cfg, "--output", str(a), "run"])
    run_cli(["--config", cfg, "--output", str(b), "run"])
    assert a.read_bytes() == b.read_bytes()


def test_distribution_csv_matches_row_loop():
    # blocks of _CSV_ROWS rows, and values whose text is easy to get wrong
    from realpathsim.cli import _CSV_ROWS, _distribution_text
    from realpathsim.engine import PathDistribution

    from oracles import distribution_csv_rows

    n = 2 * _CSV_ROWS + 5
    rng = np.random.default_rng(4)
    probs = rng.uniform(0, 1, n)
    probs[:3] = [0.0, 5e-324, 1e-300]
    probs /= probs.sum()
    odd = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300, -1.5, 0.1, 2.0**53]
    smeared = rng.normal(size=n) + 1j * rng.normal(size=n)
    smeared.real[: len(odd)] = odd
    smeared.imag[: len(odd)] = odd[::-1]
    denom = rng.uniform(0, 1e6, n)
    denom[: len(odd)] = odd
    dist = PathDistribution(probs=probs, norm_constant=1 / 3, smeared=smeared, denom=denom)
    assert _distribution_text(dist, "csv") == distribution_csv_rows(dist)


# float values whose text is easy to get wrong, each finite as every
# written distribution's are
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.5e-308, 1e308, 0.1, 1 / 3]


def _unchecked_distribution(column):
    """A PathDistribution with ``column`` in every float column.

    The column need not sum to 1, so the probabilities' check is
    skipped: the writers read the fields only.
    """
    from realpathsim.engine import PathDistribution

    dist = object.__new__(PathDistribution)
    fields = {"probs": column, "norm_constant": column[-1],
              "smeared": column + 1j * column[::-1], "denom": column[::-1]}
    for name, value in fields.items():
        object.__setattr__(dist, name, value)
    return dist


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_distribution_writers_match_row_oracles_one_row(value):
    from realpathsim.cli import _distribution_text

    from oracles import distribution_csv_rows, distribution_json_dumps

    dist = _unchecked_distribution(np.array([value]))
    assert _distribution_text(dist, "json") == distribution_json_dumps(dist)
    assert _distribution_text(dist, "csv") == distribution_csv_rows(dist)


def test_distribution_writers_match_row_oracles_past_one_block():
    # a second block of one row, every edge value in every column
    from realpathsim.cli import _CSV_ROWS, _distribution_text

    from oracles import distribution_csv_rows, distribution_json_dumps

    dist = _unchecked_distribution(np.resize(EDGE_VALUES, _CSV_ROWS + 1))
    assert _distribution_text(dist, "json") == distribution_json_dumps(dist)
    assert _distribution_text(dist, "csv") == distribution_csv_rows(dist)


def test_ratio_csv_matches_row_oracle_on_degenerate_rows():
    # endpoint 1 has no direct mass and endpoint 2 no quantum value: the
    # rows over them carry an inf ratio and a NaN rel_err
    from realpathsim.cli import _ratio_csv
    from realpathsim.screen import ScreenResult

    from oracles import ratio_csv_rows

    rows = ScreenResult(totals={0: 2.0, 1: 0.0, 2: 1 / 3},
                        quantum={0: 1.0, 1: 4.0, 2: 0.0}).ratio_rows()
    assert any(r["degenerate"] and np.isinf(r["direct_ratio"]) for r in rows)
    assert any(np.isnan(r["rel_err"]) for r in rows)
    assert any(not np.isnan(r["rel_err"]) for r in rows)
    assert _ratio_csv(rows) == ratio_csv_rows(rows)


def test_output_floats_round_trip(tmp_path):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    out = tmp_path / "out.csv"
    run_cli(["--config", cfg, "--output", str(out), "run"])
    from realpathsim.engine import path_probabilities
    from realpathsim.toymodels import M1Spec, build_m1

    dist = path_probabilities(build_m1(M1Spec(24, 9, 3)), DistanceSpec("step", D=3))
    for line in out.read_text().splitlines()[2:]:
        idx, prob = line.split(",")[:2]
        assert float(prob) == dist.probs[int(idx) - 1]  # 17 sig digits round-trip


def test_bad_json_exits_64(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli(["--config", str(bad), "run"]) == 64


def test_missing_config_exits_64():
    assert run_cli(["run"]) == 64


def test_spec_violation_exits_65_naming_rule(tmp_path, capsys):
    cfg = write(
        tmp_path / "bad.json",
        {"model": {"model": "M1", "N": 24, "M": 8, "K": 3},
         "distance": {"name": "step", "D": 3}},
    )
    assert run_cli(["--config", cfg, "run"]) == 65
    assert "odd" in capsys.readouterr().err


def test_all_zero_probability_exits_70(tmp_path):
    # corridor too wide for the lattice: every path gets weight zero
    cfg = write(
        tmp_path / "z.json",
        {"model": {"model": "lattice", "steps": 2, "extent": 1,
                   "start": 0, "end": 0, "hop": 1},
         "distance": {"name": "max_sep"},
         "weight": {"name": "corridor", "margin": 5}},
    )
    assert run_cli(["--config", cfg, "run"]) == 70


def test_compare_m1_exact(tmp_path, capsys):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    out = tmp_path / "cmp.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "compare"]) == 0
    summary = capsys.readouterr().out
    max_err = float(summary.split("max_abs_err=")[1])
    assert max_err <= 1e-12
    lines = out.read_text().splitlines()
    assert lines[0] == "index,direct,closed_form,abs_err,status"
    statuses = {line.split(",")[-1] for line in lines[1:]}
    assert statuses == {"covered", "boundary", "uncovered"}


def test_compare_m2_premise_violation_exits_65(tmp_path, capsys):
    cfg = write(
        tmp_path / "m2.json",
        {"model": {"model": "M2", "N": 120, "M0": 31, "K0": 3,
                   "M1": 41, "K1": 3},
         "distance": {"name": "step", "D": 3},
         "case": "i"},   # 2D < beam span: case (i) premises fail
    )
    assert run_cli(["--config", cfg, "compare"]) == 65
    assert "both beams" in capsys.readouterr().err


def test_compare_rejects_m3(tmp_path):
    cfg = write(
        tmp_path / "m3.json",
        {"model": {"model": "M3", "N": 24, "regions": [[9, 3, 0.0]]},
         "distance": {"name": "step", "D": 3}},
    )
    assert run_cli(["--config", cfg, "compare"]) == 65


def test_classify_exit_codes(tmp_path, capsys):
    causal = write(tmp_path / "c.json", {"events": [[0, 0], [0, 1], [0, 2]]})
    noncausal = write(tmp_path / "n.json", {"events": [[0, 0], [1, 0.1], [0, 2]]})
    anticausal = write(tmp_path / "a.json",
                       {"events": [[0, 0], [0, 1], [0, 0.5], [0, 2]]})
    assert run_cli(["classify", causal]) == 0
    assert run_cli(["classify", noncausal]) == 1
    assert run_cli(["classify", anticausal]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["causal", "non-causal", "anti-causal"]


def test_ratios_csv(tmp_path):
    cfg = write(
        tmp_path / "screen.json",
        {"model": {"model": "screen", "D": 2,
                   "endpoints": [
                       {"N": 11, "regions": [[5, 2, 0.0]]},
                       {"N": 11, "regions": [[5, 4, 0.0]]}],
                   "screen_before": {"N": 8, "M": 5, "K": 1},
                   "screen_after": {"N": 23, "K": 2, "anchors": [7, 15]}}},
    )
    out = tmp_path / "ratios.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "ratios"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,k,direct_ratio,quantum_ratio,rel_err"
    assert len(lines) == 3  # both ordered pairs


def test_uniform_weight_on_toy_model_gives_plain_bytes(tmp_path):
    plain, uniform = tmp_path / "plain.csv", tmp_path / "uniform.csv"
    cfg = write(tmp_path / "plain.json", M1_CONFIG)
    assert run_cli(["--config", cfg, "--output", str(plain), "run"]) == 0
    cfg = write(tmp_path / "uniform.json", {**M1_CONFIG, "weight": {"name": "uniform"}})
    assert run_cli(["--config", cfg, "--output", str(uniform), "run"]) == 0
    assert uniform.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("config,command", [
    (M1_CONFIG, "run"),
    (M1_CONFIG, "compare"),
    ({**M1_CONFIG, "sweep": {"name": "D", "values": [2, 3]}}, "sweep"),
    (json.loads((DATA / "screen.json").read_text()), "run"),
    (json.loads((DATA / "screen.json").read_text()), "ratios"),
])
def test_weight_on_unweighted_model_exits_65(tmp_path, capsys, config, command):
    # toy and screen models have no weights: one in the config is refused,
    # not ignored
    for name in ("corridor", "bogus"):
        cfg = write(tmp_path / "w.json", {**config, "weight": {"name": name}})
        out = tmp_path / f"{name}.csv"
        assert run_cli(["--config", cfg, "--output", str(out), command]) == 65
        assert not out.exists()
        assert capsys.readouterr().err.startswith("SpecViolation:")


@pytest.mark.parametrize("config,command", [
    ({**M1_CONFIG, "distance_scale": 7.0}, "run"),
    ({**M1_CONFIG, "distance_scale": 7.0}, "compare"),
    ({**json.loads((DATA / "m2_sweep.json").read_text()),
      "sweep": {"name": "distance_scale", "values": [0, 1, 100]}}, "sweep"),
    ({**json.loads((DATA / "screen.json").read_text()), "distance_scale": 7.0}, "run"),
    ({**json.loads((DATA / "screen.json").read_text()), "distance_scale": 7.0}, "ratios"),
    ({**M1_CONFIG, "arm_phase": 3.14}, "run"),
    ({**M1_CONFIG, "arm_phase": 3.14}, "compare"),
    ({**json.loads((DATA / "m2_sweep.json").read_text()), "arm_phase": 3.14}, "sweep"),
    ({**json.loads((DATA / "screen.json").read_text()), "arm_phase": 3.14}, "run"),
    ({**json.loads((DATA / "screen.json").read_text()), "arm_phase": 3.14}, "ratios"),
])
def test_distance_scale_on_non_lattice_model_exits_65(tmp_path, capsys, config, command):
    # only lattice distances are scaled: elsewhere the field is refused,
    # not ignored
    cfg = write(tmp_path / "s.json", config)
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), command]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("SpecViolation:") and "lattice models only" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weight", [
    {"name": "causal_only"}, {"name": "bogus"}, "corridor",
    # a key the weight does not read, which would be ignored
    {"name": "corridor", "margn": 3},
    {"name": "curvature_cutoff", "margin": 2},
    {"name": "uniform", "threshold": 2.0},
])
def test_bad_lattice_weight_exits_64(tmp_path, weight):
    cfg = write(tmp_path / "lat.json", {
        "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0},
        "distance": {"name": "max_sep"},
        "weight": weight,
    })
    out = tmp_path / "lat.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 64
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--weight", "uniform", "--margin", "3"],
    ["--threshold", "2"],
    ["--weight", "corridor", "--threshold", "2"],
    ["--weight", "curvature_cutoff", "--margin", "1"],
])
def test_lattice_flag_its_weight_does_not_read_exits_64(tmp_path, capsys, flags):
    # --threshold and --margin set the key of one weight each; under any
    # other weight they would be ignored
    out = tmp_path / "lat.csv"
    argv = ["lattice", "--steps", "4", "--extent", "3", "--hop", "2", *flags]
    assert run_cli([*argv, "--output", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown key" in err and repr(flags[-2].lstrip("-")) in err


def test_mass_on_distance_without_mass_exits_64(tmp_path, capsys):
    # the mass-weighted distances read the lattice mass: a distance's own
    # mass field is refused, not ignored, on every distance
    for name in ("max_sep", "mass_l1", "mass_max_sep"):
        cfg = write(tmp_path / "lat.json", {
            "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0},
            "distance": {"name": name, "mass": 7.0},
        })
        out = tmp_path / "lat.csv"
        assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 64, name
        assert not out.exists()
        assert "takes no mass" in capsys.readouterr().err


def test_lattice_subcommand_writes_paths_file(tmp_path):
    out = tmp_path / "lat.csv"
    rc = run_cli([
        "lattice", "--steps", "4", "--extent", "4", "--start", "0",
        "--end", "0", "--distance", "max_sep", "--output", str(out),
    ])
    assert rc == 0
    assert out.exists()
    paths_file = tmp_path / "lat.csv.paths.csv"
    lines = paths_file.read_text().splitlines()
    assert lines[0] == "index,x0,x1,x2,x3,x4"
    assert len(lines) == 20  # 19 paths + header


def test_lattice_outputs_match_golden_bytes(tmp_path):
    out = tmp_path / "lattice_smoke.csv"
    assert run_cli([
        "lattice", "--steps", "4", "--extent", "3", "--hop", "2",
        "--weight", "corridor", "--output", str(out),
    ]) == 0
    for name in ("lattice_smoke.csv", "lattice_smoke.csv.paths.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
    # the same run as JSON, beside the same paths file
    out = tmp_path / "lattice_smoke.json"
    assert run_cli([
        "lattice", "--steps", "4", "--extent", "3", "--hop", "2",
        "--weight", "corridor", "--format", "json", "--output", str(out),
    ]) == 0
    assert out.read_bytes() == (DATA / "lattice_smoke.json").read_bytes()
    paths = (tmp_path / "lattice_smoke.json.paths.csv").read_bytes()
    assert paths == (DATA / "lattice_smoke.csv.paths.csv").read_bytes()
    # the corridor's default margin, given as a flag
    out = tmp_path / "margin.csv"
    assert run_cli([
        "lattice", "--steps", "4", "--extent", "3", "--hop", "2",
        "--weight", "corridor", "--margin", "1", "--output", str(out),
    ]) == 0
    assert out.read_bytes() == (DATA / "lattice_smoke.csv").read_bytes()
    sweep = tmp_path / "lattice_sweep.csv"
    cfg = str(DATA / "lattice_sweep.json")
    assert run_cli(["--config", cfg, "--output", str(sweep), "sweep"]) == 0
    assert sweep.read_bytes() == (DATA / "lattice_sweep.csv").read_bytes()


LATTICE_SMOKE_CONFIG = {
    "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0, "hop": 2},
    "distance": {"name": "max_sep"},
    "weight": {"name": "corridor"},
}


def test_lattice_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    # every run is on the calling thread, and REALPATH_THREADS, which
    # sized a sweep pool in earlier versions, is ignored whatever its
    # value: max_sep and l2 on the dense pass, l1_time_integral on the
    # transfer route; each scale sweep's cells (83 paths dense, and 1 751
    # paths on the transfer route) share one plan, and the mass sweep's
    # repeated value makes one shared group beside two single cells
    cfg = write(tmp_path / "smoke.json", LATTICE_SMOKE_CONFIG)
    golden = (DATA / "lattice_smoke.csv").read_bytes()
    paths = (DATA / "lattice_smoke.csv.paths.csv").read_bytes()
    for threads in ("1", "2", "3", "two"):
        monkeypatch.setenv("REALPATH_THREADS", threads)
        out = tmp_path / f"lat{threads}.csv"
        assert run_cli([
            "lattice", "--steps", "4", "--extent", "3", "--hop", "2",
            "--weight", "corridor", "--output", str(out),
        ]) == 0
        assert out.read_bytes() == golden, threads
        assert (tmp_path / f"lat{threads}.csv.paths.csv").read_bytes() == paths, threads
        run = tmp_path / f"run{threads}.csv"
        assert run_cli(["--config", cfg, "--output", str(run), "run"]) == 0
        assert run.read_bytes() == golden, threads
        for name in ("lattice_sweep", "lattice_sweep_transfer", "lattice_mass_sweep"):
            sweep = tmp_path / f"{name}{threads}.csv"
            cfg_sweep = str(DATA / f"{name}.json")
            assert run_cli(["--config", cfg_sweep, "--output", str(sweep), "sweep"]) == 0
            assert sweep.read_bytes() == (DATA / f"{name}.csv").read_bytes(), (name, threads)
        for name in ("l2", "l1_time_integral"):
            out = tmp_path / f"{name}{threads}.csv"
            assert run_cli([
                "lattice", "--steps", "4", "--extent", "3", "--hop", "2",
                "--weight", "corridor", "--distance", name, "--output", str(out),
            ]) == 0
            assert out.read_bytes() == (tmp_path / f"{name}1.csv").read_bytes(), threads


def _replaced(config: dict, keys: tuple, value) -> dict:
    """A copy of ``config`` with the entry at the path ``keys`` set to ``value``."""
    config = json.loads(json.dumps(config))
    inner = config
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return config


SCREEN_CONFIG = json.loads((DATA / "screen.json").read_text())
M3_CONFIG = json.loads((DATA / "m3_sweep.json").read_text())


@pytest.mark.parametrize("config, keys, value, command", [
    (M1_CONFIG, ("model", "N"), 24.9, "run"),
    (M1_CONFIG, ("model", "M"), True, "run"),
    (M1_CONFIG, ("distance", "D"), 3.7, "run"),
    (M1_CONFIG, ("distance", "D"), True, "compare"),
    (LATTICE_SMOKE_CONFIG, ("model", "steps"), 4.6, "run"),
    (LATTICE_SMOKE_CONFIG, ("model", "hop"), True, "run"),
    (LATTICE_SMOKE_CONFIG, ("weight", "margin"), 1.5, "run"),
    ({**M1_CONFIG, "sweep": {"name": "D", "values": [2]}}, ("sweep", "values", 0), 2.5, "sweep"),
    ({**M1_CONFIG, "sweep": {"name": "N", "values": [24]}}, ("sweep", "values", 0), 24.5, "sweep"),
    (M3_CONFIG, ("model", "regions", 0, 0), 201.5, "run"),
    (M3_CONFIG, ("model", "regions", 1, 1), 4.5, "run"),
    (SCREEN_CONFIG, ("model", "D"), 2.5, "ratios"),
    (SCREEN_CONFIG, ("model", "screen_after", "N"), 23.5, "ratios"),
    (SCREEN_CONFIG, ("model", "screen_after", "anchors", 0), 7.5, "ratios"),
    (SCREEN_CONFIG, ("model", "endpoints", 1, "regions", 0, 1), 4.5, "ratios"),
    (M1_CONFIG, ("model", "N"), "24", "run"),
    (M1_CONFIG, ("distance", "D"), "3", "compare"),
    (LATTICE_SMOKE_CONFIG, ("model", "steps"), "4", "run"),
    (LATTICE_SMOKE_CONFIG, ("weight", "margin"), "1", "run"),
    ({**M1_CONFIG, "sweep": {"name": "D", "values": [2]}}, ("sweep", "values", 0), "2", "sweep"),
    (M3_CONFIG, ("model", "regions", 0, 0), "201", "run"),
    (SCREEN_CONFIG, ("model", "screen_after", "anchors", 0), "7", "ratios"),
])
def test_non_integral_integer_field_exits_64(tmp_path, capsys, config, keys, value, command):
    # int() would run each as a truncated integer, or a string as the
    # integer it spells, and exit 0
    cfg = write(tmp_path / "config.json", _replaced(config, keys, value))
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "must be an integer" in err and "Traceback" not in err


M2_CONFIG = json.loads((DATA / "m2_sweep.json").read_text())
LATTICE_SWEEP_CONFIG = json.loads((DATA / "lattice_sweep.json").read_text())
LATTICE_MASS_SWEEP_CONFIG = json.loads((DATA / "lattice_mass_sweep.json").read_text())


@pytest.mark.parametrize("config, keys, value, command", [
    (LATTICE_SMOKE_CONFIG, ("model", "mass"), True, "run"),
    (LATTICE_SMOKE_CONFIG, ("model", "mass"), "1", "run"),
    (M2_CONFIG, ("model", "theta1"), "3.14", "run"),
    (M2_CONFIG, ("model", "theta0"), False, "compare"),
    (LATTICE_SMOKE_CONFIG, ("distance_scale",), "1", "run"),
    (LATTICE_SMOKE_CONFIG, ("distance_scale",), True, "run"),
    (LATTICE_SMOKE_CONFIG, ("arm_phase",), False, "run"),
    (LATTICE_SMOKE_CONFIG, ("weight",), {"name": "curvature_cutoff", "threshold": True}, "run"),
    (LATTICE_SMOKE_CONFIG, ("weight",), {"name": "curvature_cutoff", "threshold": "1"}, "run"),
    (M3_CONFIG, ("model", "regions", 1, 2), "1.1", "run"),
    (M3_CONFIG, ("model", "regions", 2, 2), True, "sweep"),
    (LATTICE_SWEEP_CONFIG, ("sweep", "values", 1), "0.3", "sweep"),
    (LATTICE_SWEEP_CONFIG, ("sweep", "values", 0), False, "sweep"),
    (LATTICE_MASS_SWEEP_CONFIG, ("sweep", "values", 1), True, "sweep"),
    (LATTICE_MASS_SWEEP_CONFIG, ("sweep", "values", 0), "0.5", "sweep"),
])
def test_non_numeric_float_field_exits_64(tmp_path, capsys, config, keys, value, command):
    # float() would run a bool as 0.0 or 1.0, and a string as the number
    # it spells, and exit 0
    cfg = write(tmp_path / "config.json", _replaced(config, keys, value))
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize("keys, value", [(("model", "N"), 24.0), (("model", "K"), 3e0),
                                         (("distance", "D"), 3.0)])
def test_integral_float_runs_as_its_integer(tmp_path, keys, value):
    cfg = write(tmp_path / "config.json", _replaced(M1_CONFIG, keys, value))
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 0
    assert out.read_bytes() == (DATA / "m1_run.csv").read_bytes()


def test_exp_index_overflow_prints_nothing(tmp_path):
    # n/D = 2 048: from gap 14 on the kernel exp(-exp(|i-j|/D)) underflows
    # to the exact 0 the postulate needs, so there is nothing to report
    cfg = write(tmp_path / "exp.json", {
        "model": {"model": "M2", "N": 4097, "M0": 2001, "K0": 4, "M1": 2016, "K1": 5},
        "distance": {"name": "exp_index", "D": 2},
    })
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    code = "import sys; from realpathsim.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "--config", cfg, "--output", str(tmp_path / "out.csv"), "run"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def _openblas_getter():
    """The get-threads function of a loaded OpenBLAS, or None."""
    for path in cli._openblas_paths():
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def test_cli_caps_loaded_openblas_at_one_thread(tmp_path):
    getter = _openblas_getter()
    if getter is None:
        pytest.skip("no OpenBLAS with a get-threads function is loaded")
    assert run_cli(["--config", str(DATA / "m1.json"), "--output", str(tmp_path / "m1.csv"), "run"]) == 0
    assert getter() == 1


def test_blas_cap_without_openblas_does_nothing(tmp_path, monkeypatch):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f0000000000-7f0000001000 r--p 00000000 08:01 42 /usr/lib/libm.so.6\n"
        "7f0000001000-7f0000002000 rw-p 00000000 00:00 0 \n"
        "7ffd00000000-7ffd00021000 rw-p 00000000 00:00 0 [stack]\n"
    )
    assert cli._openblas_paths(str(maps)) == []
    assert cli._openblas_paths(str(tmp_path / "absent")) == []
    with maps.open("a") as fh:
        fh.write("7f0000003000-7f0000004000 r-xp 00000000 08:01 43 /opt/lib/libopenblasp-r0.3.so\n")
    assert cli._openblas_paths(str(maps)) == ["/opt/lib/libopenblasp-r0.3.so"]

    def refuse(*args, **kwargs):
        raise AssertionError("loaded a library")

    monkeypatch.setattr(cli, "_openblas_paths", lambda: [])
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    cli._cap_blas_threads.__wrapped__()


@pytest.mark.parametrize(
    "config, command, flags, golden",
    [
        ("m2_sweep.json", "sweep", [], "m2_sweep.csv"),
        ("m2_sweep.json", "sweep", ["--literal-log-half"], "m2_sweep_literal.csv"),
        ("m1.json", "run", [], "m1_run.csv"),
        ("m1.json", "compare", [], "m1_compare.csv"),
        ("screen.json", "ratios", [], "screen_ratios.csv"),
        ("m2_sweep_wide.json", "sweep", [], "m2_sweep_wide.csv"),
        ("m2_sweep_wide.json", "sweep", ["--literal-log-half"], "m2_sweep_wide_literal.csv"),
        ("m2_exp_index.json", "sweep", [], "m2_exp_index.csv"),
        ("m3_sweep.json", "sweep", [], "m3_sweep.csv"),
        ("m3_sweep.json", "sweep", ["--literal-log-half"], "m3_sweep_literal.csv"),
        ("m2_theta_sweep.json", "sweep", [], "m2_theta_sweep.csv"),
        ("m1.json", "run", ["--format", "json"], "m1_run.json"),
        ("screen.json", "ratios", ["--format", "json"], "screen_ratios.json"),
        ("m2_compare_i.json", "compare", [], "m2_compare_i.csv"),
        ("m2_compare_ii.json", "compare", [], "m2_compare_ii.csv"),
        ("m3_sweep_long.json", "sweep", [], "m3_sweep_long.csv"),
        ("m3_sweep_long.json", "sweep", ["--literal-log-half"], "m3_sweep_long_literal.csv"),
        ("m2_sweep_1e7.json", "sweep", [], "m2_sweep_1e7.csv"),
    ],
)
def test_banded_outputs_match_golden_bytes(tmp_path, config, command, flags, golden):
    # the README's M1 and M2 examples, a K=3 screen config, an M2 sweep
    # whose windows reach past N/2, an M2 sweep under exp_index, a
    # three-region M3 sweep over D from 1 past N (sharing one prefix), an
    # M2 theta1 sweep (a model spec, so a prefix, per cell), the M1 and
    # screen examples again as JSON, M2 compares in case (i) (theta1 =
    # 2.1) and case (ii), the M3 sweep again over 60 regions and
    # 214 214 paths, mostly 2-periodic rows, and the benchmark's M2 sweep
    # over D at N=10^7
    out = tmp_path / golden
    argv = ["--config", str(DATA / config), "--output", str(out), *flags, command]
    assert run_cli(argv) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_lattice_over_tile_budget_exits_65_before_enumeration(capsys, monkeypatch):
    # 179,755 paths pass LatticeSpec, but past DENSE_PATH_BOUND for the
    # dense pass l2 takes; admission counts them without enumerating
    from realpathsim import lattice

    def refuse(spec):
        raise AssertionError("enumerated an over-budget spec")

    monkeypatch.setattr(lattice, "enumerate_paths", refuse)
    rc = run_cli([
        "lattice", "--steps", "9", "--extent", "6", "--hop", "2",
        "--distance", "l2",
    ])
    assert rc == 65
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err


def test_lattice_streamed_spec_passes_admission():
    # 38,131 paths: a 10.8 GiB distance matrix, but only about 0.1 GiB
    # per dense tile (complex exp(-d) and the distance temporaries, at
    # most 48 bytes an entry), so the streamed route admits it
    from realpathsim.engine import _TILE_ROWS
    from realpathsim.lattice import MAX_TILE_BYTES, LatticeSpec, admit

    n, transfer = admit(LatticeSpec(steps=8, extent=6, start=0, end=0, hop=2), DistanceSpec("l2"))
    assert (n, transfer) == (38131, False)
    assert n * n * 8 > 10 * 2**30 and _TILE_ROWS * n * 48 < MAX_TILE_BYTES


def test_factoring_distances_admit_t9_and_t10():
    # 179,755 and 850,739 paths: past the dense bound, but the transfer
    # route holds O(1) arrays per path and small messages
    from realpathsim.errors import ModelTooLarge
    from realpathsim.lattice import (
        DENSE_PATH_BOUND,
        MAX_TILE_BYTES,
        LatticeSpec,
        admit,
        transfer_bytes,
    )

    for steps, n in ((9, 179_755), (10, 850_739)):
        spec = LatticeSpec(steps=steps, extent=6, start=0, end=0, hop=2)
        assert admit(spec, DistanceSpec("max_sep")) == (n, True) and n > DENSE_PATH_BOUND
        assert transfer_bytes(spec, DistanceSpec("max_sep")) < MAX_TILE_BYTES
        with pytest.raises(ModelTooLarge):
            admit(spec, DistanceSpec("l2"))


def test_transfer_over_budget_exits_65_before_enumeration(capsys, monkeypatch):
    # 891,831 paths, 1.05 times the T=10 spec's: past the dense bound,
    # and the transfer route's run, counted by transfer_bytes, comes to
    # just over MAX_TILE_BYTES; refused before enumeration
    from realpathsim import lattice

    argv = ["--steps", "9", "--extent", "7", "--start", "1", "--end", "7", "--hop", "3"]
    spec = lattice.LatticeSpec(steps=9, extent=7, start=1, end=7, hop=3)
    need = lattice.transfer_bytes(spec, DistanceSpec("max_sep"))
    assert lattice.path_count(spec) == 891_831
    assert lattice.MAX_TILE_BYTES < need < 1.02 * lattice.MAX_TILE_BYTES

    def refuse(spec):
        raise AssertionError("enumerated an over-budget spec")

    monkeypatch.setattr(lattice, "enumerate_paths", refuse)
    assert run_cli(["lattice", *argv]) == 65
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "transfer route" in err


def test_wide_lattice_takes_the_dense_pass(tmp_path):
    # 401 paths two steps wide: max_sep's transfer messages, over 401
    # radii and sites per prefix, would take 7.7 GiB, so the dense pass
    # runs it, with the probabilities it gave before the transfer route
    from realpathsim.distances import GridPathSource
    from realpathsim.engine import path_probabilities
    from realpathsim.lattice import LatticeSpec, enumerate_paths, lattice_ensemble

    out = tmp_path / "wide.csv"
    argv = ["lattice", "--steps", "2", "--extent", "200", "--hop", "200"]
    assert run_cli([*argv, "--output", str(out)]) == 0
    spec = LatticeSpec(steps=2, extent=200, start=0, end=0, hop=200)
    sites = enumerate_paths(spec)
    source = GridPathSource(sites, DistanceSpec("max_sep"), spec.mass)
    want = path_probabilities(lattice_ensemble(spec, sites), source)
    rows = out.read_text().splitlines()[2:]
    assert [float(r.split(",")[1]) for r in rows] == want.probs.tolist()


def test_lattice_steps_9_runs_where_the_dense_pass_refuses(tmp_path):
    # the CI step: max_sep runs over 179,755 paths, l2 still exits 65
    out = tmp_path / "t9.csv"
    argv = ["lattice", "--steps", "9", "--extent", "6", "--hop", "2", "--weight", "corridor"]
    assert run_cli([*argv, "--distance", "max_sep", "--output", str(out)]) == 0
    with out.open() as fh:
        assert sum(1 for _ in fh) == 179_755 + 2
    assert run_cli([*argv, "--distance", "l2", "--output", str(tmp_path / "l2.csv")]) == 65


@pytest.mark.parametrize("flags", [
    ["--distance-scale", "-1"],
    ["--distance-scale", "nan"],
    ["--distance-scale", "inf"],
    ["--mass", "-2", "--distance", "mass_l1"],
    ["--mass", "nan", "--distance", "mass_max_sep"],
])
def test_lattice_bad_scale_or_mass_exits_65(tmp_path, capsys, flags):
    out = tmp_path / "out.csv"
    argv = ["lattice", "--steps", "4", "--extent", "3", "--hop", "2", *flags]
    assert run_cli([*argv, "--output", str(out)]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("SpecViolation:") and "finite and >= 0" in err


@pytest.mark.parametrize("fields", [
    {"distance_scale": -1},
    {"distance_scale": float("nan")},
    {"model": {**LATTICE_SMOKE_CONFIG["model"], "mass": -2},
     "distance": {"name": "mass_l1"}},
    {"model": {**LATTICE_SMOKE_CONFIG["model"], "mass": -2},
     "distance": {"name": "mass_max_sep"}},
])
def test_run_bad_scale_or_mass_exits_65(tmp_path, capsys, fields):
    cfg = write(tmp_path / "bad.json", {**LATTICE_SMOKE_CONFIG, **fields})
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 65
    assert not out.exists()
    assert "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["nan", "inf"])
@pytest.mark.parametrize("flags", [
    ["--steps", "7", "--extent", "6"],                              # transfer route
    ["--steps", "4", "--extent", "3", "--distance", "l1_time_integral"],
    ["--steps", "4", "--extent", "3", "--distance", "l2"],          # dense pass
])
def test_lattice_non_finite_mass_exits_65_before_enumeration(
    tmp_path, capsys, monkeypatch, flags, mass
):
    # the amplitudes exp(-i m S) would be NaN; no warning is printed
    from realpathsim import lattice

    def refuse(spec):
        raise AssertionError("enumerated")

    monkeypatch.setattr(lattice, "enumerate_paths", refuse)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["lattice", "--hop", "2", *flags, "--mass", mass, "--output", str(out)])
    assert rc == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("SpecViolation:") and "lattice mass must be finite" in err


@pytest.mark.parametrize("command, fields", [
    ("run", {"model": {**LATTICE_SMOKE_CONFIG["model"], "mass": float("nan")}}),
    ("run", {"model": {**LATTICE_SMOKE_CONFIG["model"], "mass": float("inf")},
             "distance": {"name": "l2"}}),
    ("sweep", {"weight": None, "sweep": {"name": "mass", "values": [1, float("nan")]}}),
    ("sweep", {"weight": None, "sweep": {"name": "mass", "values": [float("-inf")]}}),
])
def test_non_finite_lattice_mass_exits_65(tmp_path, capsys, command, fields):
    cfg = write(tmp_path / "bad.json", {**LATTICE_SMOKE_CONFIG, **fields})
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), command]) == 65
    assert not out.exists()
    assert "lattice mass must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [
    {"name": "distance_scale", "values": [0, 1, -0.5]},
    {"name": "distance_scale", "values": [1, float("nan")]},
    {"name": "mass", "values": [1, -4]},
])
def test_sweep_bad_scale_or_mass_exits_65(tmp_path, capsys, sweep):
    config = json.loads((DATA / "lattice_sweep.json").read_text())
    config["distance"] = {"name": "mass_max_sep"}
    cfg = write(tmp_path / "bad.json", {**config, "sweep": sweep})
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 65
    assert not out.exists()
    assert "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("distance, sweep, error", [
    ("l2", {"name": "steps", "values": [3, 9]}, "ModelTooLarge:"),  # T=9: past the dense bound
    ("max_sep", {"name": "mass", "values": [1, float("nan")]}, "SpecViolation:"),
    ("mass_max_sep", {"name": "mass", "values": [1, -4]}, "SpecViolation:"),
])
def test_lattice_sweep_refuses_a_bad_cell_before_any_enumeration(
    tmp_path, capsys, monkeypatch, distance, sweep, error
):
    # every lattice cell is admitted before any group runs, as every toy
    # cell is, so the good cells before the bad one enumerate nothing
    from realpathsim import lattice

    calls = []
    enumerate_paths = lattice.enumerate_paths

    def counted(spec):
        calls.append(spec)
        return enumerate_paths(spec)

    monkeypatch.setattr(lattice, "enumerate_paths", counted)
    cfg = write(tmp_path / "bad.json", {
        "model": {"model": "lattice", "steps": 3, "extent": 6, "start": 0, "end": 0, "hop": 2},
        "distance": {"name": distance},
        "sweep": sweep,
    })
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 65
    assert calls == [] and not out.exists()
    assert capsys.readouterr().err.startswith(error)


M3_INF_PHASE = {"model": {"model": "M3", "N": 24, "regions": [[9, 3, float("inf")]]},
                "distance": {"name": "step", "D": 3}}


@pytest.mark.parametrize("command, config", [
    ("run", M3_INF_PHASE),
    ("run", {**M2_CONFIG, "model": {**M2_CONFIG["model"], "theta1": float("nan")}}),
    ("sweep", {**M2_CONFIG, "sweep": {"name": "theta1", "values": [0, float("inf")]}}),
    ("ratios", {"model": {**SCREEN_CONFIG["model"], "endpoints": [
        {"N": 11, "regions": [[5, 2, 0.0]]}, {"N": 11, "regions": [[5, 4, float("-inf")]]}]}}),
])
def test_non_finite_region_phase_exits_65_before_any_build(
    tmp_path, capsys, monkeypatch, command, config
):
    # exp(-i theta) of a non-finite phase is NaN: the spec is refused, with
    # no warning, before any amplitude is built
    from realpathsim import screen, toymodels

    calls = []
    build_m3 = toymodels.build_m3

    def counted(spec):
        calls.append(spec)
        return build_m3(spec)

    for module in (toymodels, screen):
        monkeypatch.setattr(module, "build_m3", counted)
    cfg = write(tmp_path / "bad.json", config)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["--config", cfg, "--output", str(out), command])
    assert rc == 65
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("SpecViolation:") and "phase must be finite" in err


def _refuse_enumeration(monkeypatch):
    from realpathsim import lattice

    def refuse(*args):
        raise AssertionError("counted or enumerated paths")

    for name in ("enumerate_paths", "path_count", "_halves"):
        monkeypatch.setattr(lattice, name, refuse)


@pytest.mark.parametrize("command, steps, distance", [
    ("run", 4, {"name": "step", "D": 3}),
    ("run", 10, {"name": "step", "D": 3}),   # 850 739 paths: was refused for the dense pass
    ("sweep", 10, {"name": "exp_index", "D": 3}),
])
def test_lattice_index_distance_exits_64_before_counting(
    tmp_path, capsys, monkeypatch, command, steps, distance
):
    _refuse_enumeration(monkeypatch)
    cfg = write(tmp_path / "index.json", {
        "model": {"model": "lattice", "steps": steps, "extent": 6, "start": 0, "end": 0,
                  "hop": 2},
        "distance": distance,
        "sweep": {"name": "distance_scale", "values": [0.5, 1]},
    })
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{distance['name']} is an index distance" in err and "Traceback" not in err


@pytest.mark.parametrize("steps, distance, arm_phase", [
    (7, "max_sep", float("nan")),    # transfer route
    (4, "max_sep", float("nan")),    # dense pass
    (7, "max_sep", float("inf")),
    (4, "l2", float("-inf")),
])
def test_non_finite_arm_phase_exits_65_before_enumeration(
    tmp_path, capsys, monkeypatch, steps, distance, arm_phase
):
    _refuse_enumeration(monkeypatch)
    cfg = write(tmp_path / "phase.json", {
        "model": {"model": "lattice", "steps": steps, "extent": 6, "start": 0, "end": 0,
                  "hop": 2},
        "distance": {"name": distance}, "arm_phase": arm_phase,
    })
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("SpecViolation:") and "arm_phase must be finite" in err


def test_nan_curvature_threshold_exits_65_before_enumeration(tmp_path, capsys, monkeypatch):
    # NaN compares false with every curvature and would cut every path;
    # +inf cuts none and a negative threshold still cuts every path
    argv = ["lattice", "--steps", "4", "--extent", "3", "--hop", "2",
            "--weight", "curvature_cutoff", "--threshold"]
    cfg = write(tmp_path / "nan.json", {**LATTICE_SMOKE_CONFIG,
                                        "weight": {"name": "curvature_cutoff",
                                                   "threshold": float("nan")}})
    out = tmp_path / "out.csv"
    with monkeypatch.context() as patched:
        _refuse_enumeration(patched)
        assert run_cli([*argv, "nan", "--output", str(out)]) == 65
        assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 65
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("SpecViolation: the curvature_cutoff threshold must not be NaN") == 2
    assert run_cli([*argv, "inf", "--output", str(out)]) == 0
    assert run_cli([*argv, "-1", "--output", str(out)]) == 70


@pytest.mark.parametrize("events", [
    "[[0, 0], [NaN, 1], [0, 2]]",
    "[[0, 0], [Infinity, 1], [0, 2]]",
    "[[0, 0], [0, NaN], [0, 2]]",
])
def test_classify_refuses_a_non_finite_event(tmp_path, capsys, events):
    # json.loads reads NaN and Infinity, which no causal class describes
    path = tmp_path / "path.json"
    path.write_text('{"events": %s}' % events)
    assert run_cli(["classify", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


def test_lattice_sweep_enumerates_once_and_passes_messages_once(tmp_path, monkeypatch):
    # the 8 cells of a max_sep scale sweep share one enumeration and one
    # forward and backward pass of count and amplitude messages: 1 and 4
    # calls, not 8 and 32
    from realpathsim import lattice

    calls = []

    def counted(name):
        original = getattr(lattice, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("enumerate_paths", "_messages"):
        monkeypatch.setattr(lattice, name, counted(name))
    out = tmp_path / "sweep.csv"
    cfg = str(DATA / "lattice_sweep_transfer.json")
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 0
    assert out.read_bytes() == (DATA / "lattice_sweep_transfer.csv").read_bytes()
    assert (calls.count("enumerate_paths"), calls.count("_messages")) == (1, 4)


@pytest.mark.parametrize("argv, golden, admits", [
    # one group of 8 scales; three distinct masses, one group repeated
    (["--config", str(DATA / "lattice_sweep_transfer.json"), "--output", "{out}", "sweep"],
     "lattice_sweep_transfer.csv", 1),
    (["--config", str(DATA / "lattice_mass_sweep.json"), "--output", "{out}", "sweep"],
     "lattice_mass_sweep.csv", 3),
    # run_lattice_experiment admits on its own
    (["lattice", "--steps", "4", "--extent", "3", "--hop", "2", "--weight", "corridor",
      "--output", "{out}"], "lattice_smoke.csv", 1),
])
def test_lattice_admits_each_group_once(tmp_path, monkeypatch, argv, golden, admits):
    # a sweep admits each distinct (spec, distance) once, before any
    # enumeration, and its group takes the route that admission chose
    from realpathsim import lattice

    calls = []
    admit = lattice.admit

    def counted(spec, distance):
        calls.append(spec)
        return admit(spec, distance)

    monkeypatch.setattr(lattice, "admit", counted)
    out = tmp_path / "out.csv"
    assert run_cli([a.format(out=out) for a in argv]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()
    assert len(calls) == admits


@pytest.mark.parametrize("config, groups", [
    ("m2_sweep.json", 1),             # one toy build over 12 values of D
    ("m2_theta_sweep.json", 4),       # a toy build per theta1 value
    ("lattice_mass_sweep.json", 3),   # mass 1 twice, beside 0.5 and 2
])
def test_sweep_holds_one_group_preparation_at_a_time(tmp_path, monkeypatch, config, groups):
    # every group prepares once, and only after the previous group's
    # preparation (its cell, and what that holds) has been released
    live, at_prepare = [], []
    prepare = cli._prepare_group

    def counted(*args):
        at_prepare.append(len(live))
        cell = prepare(*args)
        live.append(cell.__name__)
        weakref.finalize(cell, live.pop)
        return cell

    monkeypatch.setattr(cli, "_prepare_group", counted)
    out = tmp_path / "out.csv"
    assert run_cli(["--config", str(DATA / config), "--output", str(out), "sweep"]) == 0
    assert out.read_bytes() == (DATA / config.replace(".json", ".csv")).read_bytes()
    assert at_prepare == [0] * groups
    assert live == []


def test_lattice_admission_bound_is_a_path_count(monkeypatch):
    # the bound the 512-row dense block set, 2**30 // (512*16 + 32*32)
    # paths, is kept as a path count
    from realpathsim import lattice
    from realpathsim.errors import ModelTooLarge

    spec = lattice.LatticeSpec(steps=4, extent=3, start=0, end=0)
    monkeypatch.setattr(lattice, "path_count", lambda spec: 116_508)
    assert lattice.admit(spec, DistanceSpec("l2")) == (116_508, False)
    monkeypatch.setattr(lattice, "path_count", lambda spec: 116_509)
    with pytest.raises(ModelTooLarge):
        lattice.admit(spec, DistanceSpec("l2"))


def test_sweep_visibility_transition(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {"model": {"model": "M2", "N": 600, "M0": 201, "K0": 4,
                   "M1": 216, "K1": 4},
         "distance": {"name": "step", "D": 40},
         "sweep": {"name": "D", "values": [2, 10, 40, 80]}},
    )
    out = tmp_path / "sweep.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,value,visibility,block_mass,norm_constant"
    vis = [float(line.split(",")[2]) for line in lines[1:]]
    assert vis[0] == pytest.approx(0.0, abs=1e-9)   # d-distant beams
    assert vis[-1] > 0.8                            # d-close beams interfere
    assert all(a <= b + 1e-12 for a, b in zip(vis, vis[1:]))


def test_sweep_empty_grid_header_only(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {"model": {"model": "M1", "N": 24, "M": 9, "K": 3},
         "distance": {"name": "step", "D": 3},
         "sweep": {"name": "D", "values": []}},
    )
    out = tmp_path / "sweep.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 0
    assert out.read_text() == "param,value,visibility,block_mass,norm_constant\n"


def test_sweep_unknown_parameter_exits_64(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {**M1_CONFIG, "sweep": {"name": "bogus", "values": [1, 2]}},
    )
    assert run_cli(["--config", cfg, "sweep"]) == 64


def test_sweep_grid_too_large_exits_65(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {**M1_CONFIG, "sweep": {"name": "D", "values": list(range(10**4 + 1))}},
    )
    assert run_cli(["--config", cfg, "sweep"]) == 65


def test_sweep_lattice_mass(tmp_path):
    cfg = write(
        tmp_path / "sweep.json",
        {"model": {"model": "lattice", "steps": 4, "extent": 3,
                   "start": 0, "end": 0, "hop": 2},
         "distance": {"name": "mass_max_sep"},
         "sweep": {"name": "mass", "values": [1, 4]}},
    )
    out = tmp_path / "sweep.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 0
    vis = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert vis[0] >= vis[1] - 1e-12


def test_literal_log_half_flag_changes_output(tmp_path):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["--config", cfg, "--output", str(a), "run"])
    run_cli(["--config", cfg, "--output", str(b), "--literal-log-half", "run"])
    assert a.read_text() != b.read_text()


def test_lattice_sweep_weight_exits_65(tmp_path, capsys):
    # the sweep's visibility always weighs by the corridor: a weight in the
    # config is refused, not ignored
    config = json.loads((DATA / "lattice_sweep.json").read_text())
    for name in ("corridor", "bogus"):
        cfg = write(tmp_path / "w.json", {**config, "weight": {"name": name}})
        out = tmp_path / f"{name}.csv"
        assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 65
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("SpecViolation:") and "fixes the corridor weight" in err
    cfg = write(tmp_path / "uniform.json", {**config, "weight": {"name": "uniform"}})
    out = tmp_path / "uniform.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 0
    assert out.read_bytes() == (DATA / "lattice_sweep.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--config", str(DATA / "m2_exp_index.json"), "run"],
    ["--config", str(DATA / "lattice_sweep.json"), "sweep"],
    ["lattice", "--steps", "4", "--extent", "3", "--hop", "2"],
    ["--config", str(DATA / "screen.json"), "run"],
    ["--config", str(DATA / "screen.json"), "ratios"],
])
def test_literal_log_half_off_step_exits_64(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run_cli([*argv, "--literal-log-half", "--output", str(out)]) == 64
    assert not out.exists()
    assert "step distance only" in capsys.readouterr().err


def test_sweep_over_d_on_lattice_exits_64(tmp_path, capsys):
    # a Galilean distance has no D: the cells would all be equal
    config = json.loads((DATA / "lattice_sweep.json").read_text())
    cfg = write(tmp_path / "d.json", {**config, "sweep": {"name": "D", "values": [1, 5, 50]}})
    out = tmp_path / "d.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "sweep"]) == 64
    assert not out.exists()
    assert "takes no D" in capsys.readouterr().err


LATTICE_MODEL = {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0, "hop": 2}

# a one-endpoint screen model, as a bare object
SCREEN = {"D": 2, "endpoints": [{"N": 11, "regions": [[5, 2, 0.0]]}],
          "screen_before": {"N": 8, "M": 5, "K": 1},
          "screen_after": {"N": 23, "K": 2, "anchors": [7]}}


@pytest.mark.parametrize("config, key", [
    ({"model": LATTICE_MODEL, "distance": {"name": "max_sep", "scale": 30}}, "'scale'"),
    ({"model": {**LATTICE_MODEL, "mas": 5}, "distance": {"name": "max_sep"}}, "'mas'"),
    ({"model": {"model": "M1", "N": 24, "M": 9, "K": 3, "theta": 1.0},
      "distance": {"name": "step", "D": 3}}, "'theta'"),
    ({"model": {"model": "M3", "N": 601, "regions": [[201, 4, 0.0]], "M": 3},
      "distance": {"name": "exp_index", "D": 3}}, "'M'"),
    ({"model": {"model": "M2", "N": 600, "M0": 201, "K0": 4, "M1": 216, "K1": 4},
      "distance": {"name": "exp_index", "D": 3, "rim": 0.5}}, "'rim'"),
    ({**LATTICE_SMOKE_CONFIG, "distnce_scale": 0.0}, "'distnce_scale'"),
    ({**M1_CONFIG, "case": "ii"}, "'case'"),
    ({**SCREEN, "anchor": 7}, "'anchor'"),
    ({"model": {"model": "screen", **SCREEN,
                "endpoints": [{"N": 11, "regions": [[5, 2, 0.0]], "K": 4}]}}, "'K'"),
    ({"model": {"model": "screen", **SCREEN,
                "screen_before": {"N": 8, "M": 5, "K": 1, "theta": 1.0}}}, "'theta'"),
    ({"model": {"model": "screen", **SCREEN,
                "screen_after": {"N": 23, "K": 2, "anchors": [7], "M": 7}}}, "'M'"),
    ({**LATTICE_SMOKE_CONFIG, "weight": {"name": "corridor", "margn": 3}}, "'margn'"),
    ({**M1_CONFIG, "weight": {"name": "uniform", "margin": 3}}, "'margin'"),
])
def test_unknown_config_keys_exit_64(tmp_path, capsys, config, key):
    # a key no reader takes would leave the run as if it were absent; a
    # config with no model object is a bare screen object, which ratios reads
    command = "run" if "model" in config else "ratios"
    out = tmp_path / "out.csv"
    assert run_cli(["--config", write(tmp_path / "c.json", config), "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown key" in err and key in err


def _perfbench_specs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [s for size in module.SPECS.values() for s in size.values() if "model" in s]


@pytest.mark.parametrize(
    "config",
    [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))
     if "model" in json.loads(p.read_text())] + _perfbench_specs(),
)
def test_known_config_keys_parse(config):
    # every config the tests and the benchmark run passes the key checks
    cli._model_spec(config["model"])
    if "distance" in config:
        cli._distance_spec(config, False)


def test_sweep_over_shorthand_d_matches_the_distance_object(tmp_path):
    # the model "D" shorthand is swept where it is kept, as run reads it
    config = json.loads((DATA / "m2_sweep.json").read_text())
    shorthand = {"model": {**config["model"], "D": 5}, "sweep": config["sweep"]}
    out = tmp_path / "shorthand.csv"
    assert run_cli(["--config", write(tmp_path / "s.json", shorthand), "--output", str(out), "sweep"]) == 0
    assert out.read_bytes() == (DATA / "m2_sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_model_d_beside_a_distance_object_exits_64(tmp_path, capsys, command):
    # the distance object would silently win over the model's D
    config = {"model": {**M1_CONFIG["model"], "D": 50}, "distance": {"name": "step", "D": 5},
              "sweep": {"name": "D", "values": [2, 5]}}
    out = tmp_path / "out.csv"
    assert run_cli(["--config", write(tmp_path / "c.json", config), "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert 'the model "D" and the "distance" object both set the distance' in err


@pytest.mark.parametrize("command, where, fmt", [
    *(pytest.param(c, w, "json", id=f"{w}-{c}") for w in ("config", "flag") for c in ("compare", "sweep")),
    # run and ratios write CSV or JSON, and no other format
    *(pytest.param(c, "config", "xml", id=f"config-{c}-xml") for c in ("run", "ratios")),
])
def test_json_format_on_csv_only_commands_exits_64(tmp_path, capsys, command, where, fmt):
    config = {**M1_CONFIG, "sweep": {"name": "D", "values": [2, 5]}}
    if command == "ratios":
        config = json.loads((DATA / "screen.json").read_text())
    flags = ["--format", fmt] if where == "flag" else []
    if where == "config":
        config["format"] = fmt
    out = tmp_path / "out.csv"
    argv = ["--config", write(tmp_path / "c.json", config), "--output", str(out), *flags, command]
    assert run_cli(argv) == 64
    assert not out.exists()
    formats = "CSV" if fmt == "json" else "CSV or JSON"
    assert f"{command} writes {formats} only" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    ("sweep", {**M1_CONFIG, "sweep": {"name": "D", "values": [2, 5]}, "case": "i"}, "'case'"),
    ("sweep", {**M1_CONFIG, "sweep": {"name": "D", "values": [2, 5], "vaules": [1]}}, "'vaules'"),
    # a lattice sweep sets the arm phase to 0 and pi itself
    ("sweep", {**json.loads((DATA / "lattice_sweep.json").read_text()), "arm_phase": 1.0},
     "'arm_phase'"),
    ("compare", {**M1_CONFIG, "distnce": {"name": "step", "D": 3}}, "'distnce'"),
    ("ratios", {**json.loads((DATA / "screen.json").read_text()), "distance": M1_CONFIG["distance"]},
     "'distance'"),
    ("run", {**json.loads((DATA / "screen.json").read_text()), "distance": M1_CONFIG["distance"]},
     "'distance'"),
    ("sweep", {**json.loads((DATA / "lattice_sweep.json").read_text()),
               "weight": {"name": "uniform", "margin": 1}}, "'margin'"),
])
def test_keys_a_subcommand_never_reads_exit_64(tmp_path, capsys, command, config, key):
    out = tmp_path / "out.csv"
    assert run_cli(["--config", write(tmp_path / "c.json", config), "--output", str(out), command]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown key" in err and key in err


def test_case_on_m1_compare_exits_65(tmp_path, capsys):
    # the closed forms of M1 have no case: it would be ignored
    cfg = write(tmp_path / "c.json", {**M1_CONFIG, "case": "ii"})
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "compare"]) == 65
    assert not out.exists()
    assert "case applies to M2 models only" in capsys.readouterr().err


def test_sweep_admits_each_cell_at_its_own_n(tmp_path, monkeypatch, capsys):
    # the base point is small; the last cell's N puts exp_index past the
    # banded bound, refused before any model is built
    def refuse(spec):
        raise AssertionError("built a model")

    monkeypatch.setattr(cli, "build_model", refuse)
    config = {"model": {"model": "M1", "N": 24, "M": 9, "K": 3},
              "distance": {"name": "exp_index", "D": 10**6},
              "sweep": {"name": "N", "values": [24, 10**6 + 12]}}
    out = tmp_path / "out.csv"
    assert run_cli(["--config", write(tmp_path / "c.json", config), "--output", str(out), "sweep"]) == 65
    assert not out.exists()
    assert capsys.readouterr().err.startswith("ModelTooLarge:")


def test_unknown_model_kind_exits_65(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {"model": {"model": "M9"}, "distance": {"name": "step", "D": 3}})
    assert run_cli(["--config", cfg, "run"]) == 65
    assert "unknown model kind 'M9'" in capsys.readouterr().err


def test_lattice_run_reads_arm_phase(tmp_path):
    # the config's arm_phase sets the upper-arm phase plate of a lattice run
    from realpathsim.lattice import LatticeSpec, corridor_weights, run_lattice_experiment

    cfg = write(tmp_path / "c.json", {**LATTICE_SMOKE_CONFIG, "arm_phase": np.pi})
    out = tmp_path / "out.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 0
    model = {k: v for k, v in LATTICE_SMOKE_CONFIG["model"].items() if k != "model"}
    dist, _ = run_lattice_experiment(LatticeSpec(**model), DistanceSpec("max_sep"),
                                     weight=corridor_weights, arm_phase=np.pi)
    probs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[2:]]
    assert probs == dist.probs.tolist()
    assert out.read_bytes() != (DATA / "lattice_smoke.csv").read_bytes()
