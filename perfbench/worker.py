"""One benchmark process: set up one workload, run its op list, check outputs.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned in the environment.  Prints one JSON object on its last stdout line.

Load is a closed loop with one client: ops run one after another in this
process, each starting when the previous one has returned.  A pass is one
run of the workload's fixed op list; passes repeat until the next one would
end after ``--seconds``, and at least one runs (two in a traced run: an
untraced and a traced one, alternating, so their difference is the tracing
overhead).  Output checks run between ops, outside the op timings, and so
does a full garbage collection: garbage one op leaves is not charged to the
next (separate ``conhist`` processes would not see it either), and peak RSS
then follows live memory instead of when the cyclic collector happened to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

MODULES = {"paradox": "paradox", "ladder": "ladder", "famspec": "famspec_roundtrip"}


def measure(workload, seconds: float, traced: bool) -> dict:
    ops = workload.ops()
    tracer = Tracer() if traced else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_passes: list[int] = []
    latencies: list[float] = []
    errors: dict[tuple[int, int], str] = {}
    gc.collect()
    started = time.perf_counter()
    pass_no = 0
    while True:
        use_trace = traced and pass_no % 2 == 1
        pass_started = time.perf_counter()
        wall = 0.0
        for i, op in enumerate(ops):
            out, err = None, None
            t0 = time.perf_counter()
            try:
                if use_trace:
                    with tracer.span(op.span, f"p{pass_no}:{i}"):
                        out = op.run(tracer)
                else:
                    out = op.run(None)
            except Exception as exc:  # an op that raises counts as failed
                err = f"raised {exc!r}"
            dt = time.perf_counter() - t0
            wall += dt
            if not use_trace:
                latencies.append(dt)
            if err is None:
                try:
                    err = workload.check(i, out, pass_no, use_trace)
                except Exception as exc:  # malformed output fails the op
                    err = f"check raised {exc!r}"
            del out
            gc.collect()
            if err:
                errors[(pass_no, i)] = err
        walls[use_trace].append(wall)
        if use_trace:
            traced_passes.append(pass_no)
        if pass_no == 0:
            # memory to run the op list once; later passes may only add
            # what caches keep alive, and their number varies between runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_no += 1
        now = time.perf_counter()
        if traced and not walls[True]:
            continue
        if now - started + (now - pass_started) > seconds:
            break
    for i, err in workload.finish().items():
        for p in range(pass_no):
            errors.setdefault((p, i), err)
    result = {
        "passes": pass_no,
        "ops_per_pass": len(ops),
        "wall_s": walls[False],
        "latencies_s": latencies,
        "op_labels": [op.label for op in ops],
        "peak_rss_mb": peak_rss_mb,
        "attempted": pass_no * len(ops),
        "failed": len(errors),
        "errors": [
            f"pass {p} op {ops[i].label}: {err}" for (p, i), err in sorted(errors.items())[:20]
        ],
        "extra": workload.extra(),
    }
    if traced:
        layers = workload.layer_metrics(tracer, traced_passes)
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["trace.spans"] = len(tracer.spans)
        result["traced_wall_s"] = walls[True]
        result["layers"] = layers
        result["layer_samples"] = {
            name: len(traced_passes) if name in workload.PER_PASS + ("trace.overhead_s",) else 1
            for name in layers
        }
        result["self_s"] = tracer.self_times()
        result["spans"] = tracer.to_json()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    t0 = time.perf_counter()
    import conhist.cli  # noqa: F401  (the whole package, as the command loads it)

    import_s = time.perf_counter() - t0
    module = importlib.import_module(MODULES[args.workload])
    try:
        workload = module.Workload(args.seed, args.smoke, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(workload, args.seconds, bool(args.trace))
            result["setup_s"] = setup_s
            if args.trace:
                result["layers"]["cli.import_s"] = import_s
                result["layer_samples"]["cli.import_s"] = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_name(numpy),
    }
    print(json.dumps(result))
    return 0


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
