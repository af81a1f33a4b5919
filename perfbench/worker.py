"""The workload process: set up one workload, then run operations on request.

run.py starts one fresh process per workload (and a few set-up-only ones
to time set-up).  Set-up is importing realpathsim from ``src/``, building
the inputs and configs from the seed, and one warm-up operation on the
workload's smoke-size instance.  After that the process answers one JSON
line per command read from stdin:

* ``plain``  -- run one operation untraced;
* ``traced`` -- run one operation with every traced entry point wrapped
  (tracer.py) and report its per-layer numbers;
* ``stop``   -- report the peak resident set and exit.

An operation is one closed-loop client request: the CLI subcommand, called
in-process through ``cli.main`` with output to files, or the Minkowski
library calls.  Verification happens in run.py while this process waits,
so it is outside the timed region and does not share the two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "realpathsim" / "__init__.py").is_file():
        raise SystemExit(f"no realpathsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import realpathsim

    if Path(realpathsim.__file__).resolve().parent != SRC / "realpathsim":
        raise SystemExit(f"imported realpathsim from {realpathsim.__file__}, not from {SRC}")


def peak_rss_kib() -> int:
    """Peak resident set of this process since it was exec'd.

    VmHWM belongs to the process's own address space.  ru_maxrss does not
    do here: Linux carries the forking parent's high-water mark across
    fork and exec, so it would report run.py's peak when that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def make_op(inputs: dict, workdir: Path):
    """Write the operation's inputs under workdir; return op() -> output paths."""
    from realpathsim import cli, minkowski

    workdir.mkdir(parents=True, exist_ok=True)
    name, spec = inputs["name"], inputs["spec"]
    out = workdir / f"{name}.out"

    if name == "minkowski_pairs":
        paths = [minkowski.MinkowskiPath(np.asarray(e)) for e in inputs["events"]]

        def op():
            n = len(paths)
            result = np.empty((2, n, n))
            for i, P in enumerate(paths):
                for j, Q in enumerate(paths):
                    result[0, i, j] = minkowski.d1(P, Q)
                    result[1, i, j] = minkowski.d2(P, Q, "symmetrized")
            with open(out, "wb") as fh:
                np.save(fh, result)
            return [str(out)]

        return op

    if name == "lattice_run":
        argv = ["lattice", *workloads.lattice_argv(spec), "--output", str(out)]
        outputs = [str(out), str(out) + ".paths.csv"]
    else:
        config = workdir / f"{name}.json"
        config.write_text(json.dumps(spec))
        command = "run" if name == "m1_run" else "sweep"
        argv = ["--config", str(config), "--output", str(out), command]
        outputs = [str(out)]

    def op():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"realpathsim {' '.join(argv)} exited with code {code}")
        return outputs

    return op


def run_op(op, name: str, tracer: Tracer | None) -> dict:
    root = None
    if tracer is not None:
        tracer.install()
        first = len(tracer.spans)
        root = tracer.open("bench.op")
    error, outputs = None, []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outputs = op()
    except Exception:
        error = traceback.format_exc()
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    record = {"event": "op", "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
              "error": error, "outputs": outputs}
    if tracer is not None and error is None:
        layers = layer_metrics(tracer.spans[first:], root)
        cli_bytes = 0 if name == "minkowski_pairs" else sum(os.path.getsize(p) for p in outputs)
        layers["cli.output_bytes"] = cli_bytes
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # protocol on the original stdout; the CLI's own prints go to /dev/null
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(record: dict):
        proto.write(json.dumps(record) + "\n")

    _import_package()
    if args.workload in ("m2_sweep", "lattice_sweep"):
        os.environ["REALPATH_THREADS"] = workloads.SWEEP_THREADS
    workdir = Path(args.workdir)
    op = make_op(workloads.build_inputs(args.workload, args.size, args.seed), workdir)
    warmup = make_op(workloads.build_inputs(args.workload, "smoke", args.seed), workdir / "warmup")
    warmup()
    send({"event": "ready"})
    if args.setup_only:
        return 0

    tracer = None
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "traced" and tracer is None:
            tracer = Tracer()
        send(run_op(op, args.workload, tracer if command == "traced" else None))

    if tracer is not None:
        spans_file = workdir.parent / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
    send({"event": "done", "peak_rss_mb": peak_rss_kib() / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
