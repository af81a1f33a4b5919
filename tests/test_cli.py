"""Command-line harness: formats, determinism, exit codes."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from realpathsim import cli
from realpathsim.cli import main

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
    from realpathsim.cli import _CSV_ROWS, _distribution_csv
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
    assert _distribution_csv(dist) == distribution_csv_rows(dist)


def test_output_floats_round_trip(tmp_path):
    cfg = write(tmp_path / "m1.json", M1_CONFIG)
    out = tmp_path / "out.csv"
    run_cli(["--config", cfg, "--output", str(out), "run"])
    from realpathsim.distances import DistanceSpec
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


@pytest.mark.parametrize("weight", [{"name": "causal_only"}, {"name": "bogus"}, "corridor"])
def test_bad_lattice_weight_exits_64(tmp_path, weight):
    cfg = write(tmp_path / "lat.json", {
        "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0},
        "distance": {"name": "max_sep"},
        "weight": weight,
    })
    out = tmp_path / "lat.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 64
    assert not out.exists()


def test_mass_on_distance_without_mass_exits_64(tmp_path, capsys):
    # only the mass-weighted distances read a mass: elsewhere the field is
    # refused, not ignored
    cfg = write(tmp_path / "lat.json", {
        "model": {"model": "lattice", "steps": 4, "extent": 3, "start": 0, "end": 0},
        "distance": {"name": "max_sep", "mass": 7.0},
    })
    out = tmp_path / "lat.csv"
    assert run_cli(["--config", cfg, "--output", str(out), "run"]) == 64
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
    # 83 paths: tiles of 32 rows over two threads, 21 rows over three,
    # switching often; the sweep's cells each take a one-thread pass
    cfg = write(tmp_path / "smoke.json", LATTICE_SMOKE_CONFIG)
    golden = (DATA / "lattice_smoke.csv").read_bytes()
    paths = (DATA / "lattice_smoke.csv.paths.csv").read_bytes()
    sweep_golden = (DATA / "lattice_sweep.csv").read_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "2", "3"):
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
            sweep = tmp_path / f"sweep{threads}.csv"
            cfg_sweep = str(DATA / "lattice_sweep.json")
            assert run_cli(["--config", cfg_sweep, "--output", str(sweep), "sweep"]) == 0
            assert sweep.read_bytes() == sweep_golden, threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("value", ["-1", "0", "two", "1.5", ""])
@pytest.mark.parametrize("command", ["sweep", "lattice", "run"])
def test_bad_thread_count_exits_64(tmp_path, capsys, monkeypatch, value, command):
    monkeypatch.setenv("REALPATH_THREADS", value)
    out = tmp_path / "out.csv"
    if command == "lattice":
        argv = ["lattice", "--steps", "4", "--extent", "3", "--hop", "2"]
    elif command == "run":
        argv = ["--config", write(tmp_path / "smoke.json", LATTICE_SMOKE_CONFIG), "run"]
    else:
        argv = ["--config", str(DATA / "lattice_sweep.json"), "sweep"]
    assert run_cli([*argv, "--output", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert "REALPATH_THREADS must be a positive integer" in err and "Traceback" not in err


def test_thread_default_is_the_affinity(monkeypatch):
    monkeypatch.delenv("REALPATH_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._threads() == 1
    # without an affinity call, the CPU count, and 1 when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._threads() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._threads() == 1


def test_exp_index_overflow_prints_nothing(tmp_path):
    # n/D = 2 048 > 709: exp(|i-j|/D) overflows to inf, whose exp(-inf)
    # is the exact 0 the postulate needs, so there is nothing to report
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
    ],
)
def test_banded_outputs_match_golden_bytes(tmp_path, config, command, flags, golden):
    # the README's M1 and M2 examples, a K=3 screen config, an M2 sweep
    # whose windows reach past N/2, an M2 sweep under exp_index, a
    # three-region M3 sweep over D from 1 past N (sharing one prefix), and
    # an M2 theta1 sweep (a model spec, so a prefix, per cell)
    out = tmp_path / golden
    argv = ["--config", str(DATA / config), "--output", str(out), *flags, command]
    assert run_cli(argv) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_lattice_over_tile_budget_exits_65_before_enumeration(capsys, monkeypatch):
    # 179,755 paths pass LatticeSpec, but one dense block over them would
    # pass MAX_TILE_BYTES; admission counts them without enumerating
    from realpathsim import lattice

    def refuse(spec):
        raise AssertionError("enumerated an over-budget spec")

    monkeypatch.setattr(lattice, "enumerate_paths", refuse)
    rc = run_cli([
        "lattice", "--steps", "9", "--extent", "6", "--hop", "2",
        "--distance", "max_sep",
    ])
    assert rc == 65
    err = capsys.readouterr().err
    assert err.startswith("ModelTooLarge:") and "Traceback" not in err


def test_lattice_streamed_spec_passes_admission():
    # 38,131 paths: a 10.8 GiB distance matrix, but only about 0.3 GiB
    # per dense block, so the streamed route admits it
    from realpathsim.engine import MAX_TILE_BYTES, dense_tile_bytes
    from realpathsim.lattice import LatticeSpec, admit

    n = admit(LatticeSpec(steps=8, extent=6, start=0, end=0, hop=2))
    assert n == 38131
    assert n * n * 8 > 10 * 2**30 and dense_tile_bytes(n) < MAX_TILE_BYTES


def test_lattice_admission_bound_is_a_path_count(monkeypatch):
    # the bound the 512-row dense block set, 2**30 // (512*16 + 32*32)
    # paths, is kept as a path count
    from realpathsim import lattice
    from realpathsim.errors import ModelTooLarge

    spec = lattice.LatticeSpec(steps=4, extent=3, start=0, end=0)
    monkeypatch.setattr(lattice, "path_count", lambda spec: 116_508)
    assert lattice.admit(spec) == 116_508
    monkeypatch.setattr(lattice, "path_count", lambda spec: 116_509)
    with pytest.raises(ModelTooLarge):
        lattice.admit(spec)


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
