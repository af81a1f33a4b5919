"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed
with the file's ``run_seconds`` and ``--trace 0``, one run at a time, and
records per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread: the interquartile range as a share of the median, the
figure each metric's bound is held against.  Prints one line per metric;
``--out`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def machine() -> dict:
    import numpy

    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "l3": l3.read_text().strip() if l3.exists() else None,
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="a range like 1-10")
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"command": "python3 perfbench/baseline.py " + " ".join(argv or sys.argv[1:]),
               "seeds": seeds, "run_seconds": bench["run_seconds"], "machine": machine(),
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        units = {}
        failed = 0
        for seed in seeds:
            result = run_once(name, seed, bench["run_seconds"])
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        stats = {}
        for key, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            stats[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[key], "values": v}
            bound = bounds.get(key)
            note = f"bound {bound}" if bound is not None else ""
            print(f"{name:16s} {key:26s} median {med:12.6g} {units[key]:6s} "
                  f"spread {spread:6.3f} {note}", flush=True)
        summary["workloads"][name] = {"failed": failed, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
