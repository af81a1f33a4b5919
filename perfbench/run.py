"""realpathsim benchmark: time to a solution, CPU and memory, per workload.

    python3 perfbench/run.py --workload m1_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own fresh process (worker.py) as a single
closed-loop client: the next operation starts only after the previous one
was written and verified.  Verification (oracles.py) runs here, outside
the timed region, while the workload process waits.

``--trace 0`` reports the end-to-end metrics (solve_s, cpu_s, peak_rss_mb,
setup_s).  ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics of the traced ones (median over them) plus
the tracing overhead, traced minus untraced solve_s.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 9   # fresh set-ups per run; setup_s is their median

END_TO_END = {"solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER = {
    "cli.self_s": "s", "cli.output_bytes": "bytes", "cli.sweep_busy_share": "ratio",
    "cli.sweep_self_s": "s", "bench.self_s": "s",
    "toymodels.build_s": "s", "toymodels.build_calls": "count",
    "engine.banded_s": "s", "engine.banded_calls": "count",
    "engine.dense_s": "s", "engine.dense_calls": "count",
    "engine.rows": "count", "engine.weighted_row_share": "ratio",
    "engine.peak_alloc_mb": "MiB", "engine.zero_denoms": "count", "engine.min_denom": "1",
    "distances.grid_s": "s", "distances.grid_calls": "count",
    "distances.matrix_mb": "MiB", "distances.peak_alloc_mb": "MiB",
    "lattice.enumerate_s": "s", "lattice.enumerate_calls": "count", "lattice.paths": "count",
    "lattice.visibility_s": "s", "lattice.experiment_s": "s",
    "minkowski.classify_calls": "count", "minkowski.classify_s": "s",
    "minkowski.d1_s": "s", "minkowski.d2_s": "s",
    "trace.op_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "oracle.max_err_share": "ratio",
}


class Worker:
    """One workload process; ``setup_s`` is the time until it is ready."""

    def __init__(self, name: str, size: str, seed: int, workdir: Path, setup_only: bool):
        command = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--size", size, "--seed", str(seed), "--workdir", str(workdir)]
        if setup_only:
            command.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        ready = self._read()
        if ready is None or ready.get("event") != "ready":
            self.close()
            raise RuntimeError(f"{name}: workload process failed during set-up")
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict | None:
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, command: str) -> dict | None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._read()

    def close(self) -> dict | None:
        """Stop the process and wait for it; returns its final record."""
        done = None
        if self.proc.poll() is None:
            done = self.request("stop")
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return done


def _median(values):
    return statistics.median(values) if values else math.nan


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 setups: int = SETUPS, corrupt: bool = False) -> dict:
    """Set up ``setups`` times, then run operations for ``seconds``; verify each one.

    ``size="smoke"`` and ``corrupt`` serve the self-check.
    """
    import oracles

    inputs = workloads.build_inputs(name, size, seed)
    workdir = WORK / f"{name}-{os.getpid()}"
    setup_times, ops = [], []
    worker = None
    try:
        for _ in range(setups - 1):
            probe = Worker(name, size, seed, workdir, setup_only=True)
            setup_times.append(probe.setup_s)
            probe.close()
        worker = Worker(name, size, seed, workdir, setup_only=False)
        setup_times.append(worker.setup_s)
        oracle = oracles.ORACLES[name](inputs)

        start = time.perf_counter()
        while True:
            command = "traced" if trace and len(ops) % 2 == 1 else "plain"
            record = worker.request(command)
            if record is None:
                ops.append({"traced": command == "traced", "error": "workload process died"})
                break
            if record["error"] is None:
                if corrupt:
                    oracles.corrupt(name, record["outputs"])
                try:
                    record["share"], record["error"] = oracle.check(record["outputs"])
                except (OSError, ValueError) as exc:
                    record["share"], record["error"] = math.inf, f"unreadable output: {exc}"
            ops.append(record)
            if record["error"] is not None:
                print(f"{name}: operation {len(ops)} failed: {record['error']}", file=sys.stderr)
            if time.perf_counter() - start >= seconds and (not trace or len(ops) >= 2):
                break
        done = worker.close()
        worker = None
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op["error"] is not None for op in ops)
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    traced = [op for op in ops if op.get("layers")]
    result = {
        "name": name, "seed": seed, "attempted": len(ops), "failed": failed,
        "plain_ops": len(plain), "traced_ops": len(traced),
        # an output whose shape did not match has share inf; it counts in failed
        "max_err_share": max((op["share"] for op in ops
                              if math.isfinite(op.get("share", math.inf))), default=0.0),
        "setups": len(setup_times),
    }
    if trace:
        layers = {k: _median([op["layers"][k] for op in traced])
                  for k in PER_LAYER if k not in ("trace.overhead_s", "oracle.max_err_share")}
        layers["trace.overhead_s"] = (_median([op["wall_s"] for op in traced])
                                      - _median([op["wall_s"] for op in plain]))
        layers["oracle.max_err_share"] = result["max_err_share"]
        result["metrics"] = layers
        result["units"] = PER_LAYER
    else:
        walls = [op["wall_s"] for op in plain]
        result["metrics"] = {
            "solve_s": _median(walls),
            "cpu_s": _median([op["cpu_s"] for op in plain]),
            "peak_rss_mb": done["peak_rss_mb"] if done else math.nan,
            "setup_s": _median(setup_times),
        }
        result["units"] = END_TO_END
        result["walls"] = walls
    return result


def report(result: dict):
    """Human-readable lines for one workload."""
    print(f"{result['name']}  seed={result['seed']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  fail_ratio={result['failed'] / max(result['attempted'], 1):g} ratio  "
          f"oracle max error {result['max_err_share']:.3g} of tolerance")
    notes = {
        "solve_s": "median of {plain_ops} untraced ops: {walls}",
        "cpu_s": "median of {plain_ops} untraced ops, user+sys of the process",
        "setup_s": "median of {setups} fresh set-ups",
    }
    walls = " ".join(f"{w:.4g}" for w in result.get("walls", []))
    for key, value in result["metrics"].items():
        note = notes.get(key, "").format(**{**result, "walls": walls})
        print(f"  {key:26s} {value:14.6g} {result['units'][key]:6s} {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="start operations until this long has passed (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "realpathsim" / "__init__.py").is_file():
        print(f"run.py: no realpathsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        report(r)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['name']}.{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
