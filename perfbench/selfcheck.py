"""Self-check of the benchmark, on the smoke-size instance of every workload.

    python3 perfbench/selfcheck.py

For each workload it checks, in a few seconds in all:

* an untraced and a traced operation both pass their oracle, the traced
  one reports every per-layer metric, and its self times add up to the
  traced operation time;
* the negative case: with one output value moved by 1e-6
  (oracles.corrupt), every operation counts as failed.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import sys

import run
import workloads


def check_workload(name: str) -> list[str]:
    errors = []
    good = run.run_workload(name, seed=7, seconds=0, trace=True, size="smoke", setups=1)
    if good["failed"] or good["attempted"] != 2 or good["traced_ops"] != 1:
        errors.append(f"{name}: clean run failed {good['failed']} of {good['attempted']} operations")
    missing = set(run.PER_LAYER) - set(good["metrics"])
    if missing:
        errors.append(f"{name}: traced run lacks {sorted(missing)}")
    metrics = good["metrics"]
    if abs(metrics["trace.unattributed_s"]) > 1e-9 * max(metrics["trace.op_s"], 1.0):
        errors.append(f"{name}: self times miss {metrics['trace.unattributed_s']} s of the operation")

    bad = run.run_workload(name, seed=7, seconds=0, trace=False, size="smoke", setups=1,
                           corrupt=True)
    if bad["attempted"] < 1 or bad["failed"] != bad["attempted"]:
        errors.append(f"{name}: a corrupted output was not counted as a failure")
    return errors


def main() -> int:
    if not (run.SRC / "realpathsim" / "__init__.py").is_file():
        print(f"selfcheck.py: no realpathsim package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    errors = []
    for name in workloads.NAMES:
        found = check_workload(name)
        print(f"{name}: {'FAIL' if found else 'ok'}")
        errors += found
    for e in errors:
        print(e, file=sys.stderr)
    print("selfcheck", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
