"""conhist benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paradox --seed 1 --seconds 30 --trace 0

Workloads are ``paradox``, ``ladder`` and ``famspec`` (see WORKLOADS.md).
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken
from spans around the benchmark's own calls into each conhist layer.
``--smoke`` shrinks every workload to its smallest inputs.

Each measuring process is a fresh interpreter running conhist from ``src/``
with the BLAS thread count pinned.  Set-up is repeated in separate
processes and its median reported.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (run environment, sample counts, spans) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# The seed later performance changes use to confirm a claim made on others.
CONFIRM_SEED = 2002
# BLAS threads: fixed and recorded.  One thread: with two, BLAS helper threads
# spin between the many small products and pass times wander with whatever
# else runs on the cores (see WORKLOADS.md for both measured).
BLAS_THREADS = 1
# glibc malloc adapts its mmap and trim thresholds to the frees it has seen,
# so how many page faults a pass takes drifts from pass to pass (up to ~10%
# of paradox time).  Fixed thresholds keep every pass on the same footing.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "16777216", "MALLOC_TRIM_THRESHOLD_": "1073741824"}
# Set-up samples per untraced run: these extra processes plus the measuring one.
SETUP_PROBES = 2
# Every process this script starts must have ended before this many seconds.
DEADLINE_S = 170.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: an observed sample, no interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(args, extra: list[str], deadline: float, tag: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.update(MALLOC_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(OUT / f"work-{os.getpid()}-{tag}"),
        *(["--smoke"] if args.smoke else []), *extra,
    ]
    done = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], main: dict) -> tuple[dict, dict]:
    """One pass is timed as the sum over its ops of each op's median over the
    run's passes, so a stall that hits one op in one pass does not count."""
    lat = main["latencies_s"]
    per_op = [lat[i::main["ops_per_pass"]] for i in range(main["ops_per_pass"])]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(op) for op in per_op),
        "latency_p50_s": percentile(lat, 0.50),
        "latency_p90_s": percentile(lat, 0.90),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(setups), "wall_s": len(main["wall_s"]),
        "latency_p50_s": len(lat), "latency_p90_s": len(lat), "peak_rss_mb": 1,
    }
    return values, samples


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "conhist" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no conhist source (src/conhist) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description="Run one conhist benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs only")
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [
            run_worker(args, ["--setup-only"], deadline, f"setup{k}")["setup_s"]
            for k in range(SETUP_PROBES)
        ]
        main_run = run_worker(args, [], deadline, "main")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run["setup_s"])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        layers = main_run["layers"]
        values = {m["name"]: layers.get(m["name"], 0) for m in declared}
        samples = {m["name"]: main_run["layer_samples"].get(m["name"], 0) for m in declared}
    else:
        values, samples = end_to_end(setups, main_run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = main_run["attempted"], main_run["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "commit": commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "malloc": MALLOC_ENV, **main_run["versions"],
        "load": "closed loop, 1 client, 1 process",
        "passes": main_run["passes"], "ops_per_pass": main_run["ops_per_pass"],
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "errors": main_run["errors"], "samples": samples, "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in main_run["extra"].items()},
        "setup_samples_s": setups, "pass_samples_s": main_run["wall_s"],
        "op_median_s": {
            label: statistics.median(main_run["latencies_s"][i::main_run["ops_per_pass"]])
            for i, label in enumerate(main_run["op_labels"])
        },
    }
    if args.trace:
        record.update(
            traced_wall_samples_s=main_run["traced_wall_s"], layers=layers,
            self_s=main_run["self_s"], spans=main_run["spans"],
        )
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes x {record['ops_per_pass']} ops; commit {record['commit'][:12]}, "
          f"Python {record['python']}, numpy {record['numpy']}, {record['blas']} "
          f"with {BLAS_THREADS} thread(s), {record['cpus_available']} of {record['nproc']} cpus")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} (n={samples[name]})")
    for name, m in record["extra"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<36} {record['failed_ratio']:>14.6g} -      ({failed}/{attempted})")
    for err in record["errors"]:
        print(f"  FAILED {err}")
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
