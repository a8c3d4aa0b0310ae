#!/usr/bin/env python3
"""The pmds benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload archive|objects|verify|broadcast|all
        --seed N [--seconds S] [--trace 0|1] [--smoke]

Run it from the root of a checkout; it imports the program from ``src``.
Each process it starts is a fresh single-threaded interpreter:

* a few set-up probes, whose median is ``setup_s``;
* with ``--trace 0``, one timed run giving the end-to-end metrics;
* with ``--trace 1``, one traced run giving the per-layer metrics.

The metric names, units and directions come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
workload's named metrics for a reader.  The full record, with the
environment fingerprint, goes to ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # every run must end within 180 s

SETUP_PROBES = 7
SMOKE_SETUP_PROBES = 2

# Named metrics a reader sees, with units; each workload reports the ones
# it exercises (error_rate, setup_s and peak_rss_mb come from every run).
NAMED_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "encode_MiBps": "MiB/s",
    "decode_MiBps": "MiB/s",
    "objects_per_s": "1/s",
    "decode_ms_p50": "ms",
    "decode_ms_p99": "ms",
    "subsets_per_s": "1/s",
    "selftest_s": "s",
    "sims_per_s": "1/s",
}

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """A run could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in THREAD_VARIABLES:
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the run finished")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{tail}")
    return json.loads(lines[-1])


def fingerprint(seed: int, backend, numpy_version) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pmds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "backend": backend,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline: float) -> dict:
    """All processes of one run; returns the full result record."""
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    probes = SMOKE_SETUP_PROBES if smoke else SETUP_PROBES
    setup = [run_worker(common + ["--mode", "probe"], deadline)["setup_s"]
             for _ in range(probes)]
    mode = "trace" if trace else "run"
    child = run_worker(common + ["--mode", mode, "--seconds", str(seconds)], deadline)
    return make_record(spec, child, setup, workload, seed, seconds, trace, smoke)


def make_record(spec: dict, child: dict, setup: list, workload: str, seed: int,
                seconds: float, trace: bool, smoke: bool) -> dict:
    """The result record of one run from its worker's output and set-up probes.

    A run with any failed check is marked invalid (``correct`` false).
    """
    attempted, failed = child["attempted"], child["failed"]
    record = {
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "tasks": child["tasks"],
        "fingerprint": fingerprint(seed, child["backend"], child["numpy"]),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and attempted > 0,
        "failures": child["failures"],
        "setup_samples_s": setup,
    }
    if trace:
        layers = child["per_layer"]
        record["metrics"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                             for m in spec["per_layer"]}
        record["patched_sites"] = child["patched_sites"]
        record["spans_file"] = child["spans_file"]
        record["spans_dropped"] = child["spans_dropped"]
        return record

    named = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_mb"],
        "error_rate": failed / attempted if attempted else 1.0,
        **child["named"],
    }
    values = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "rate_per_s": child["rate_per_s"],
        "call_ms_p50": child["call_ms_p50"],
    }
    record["named"] = {k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()}
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec["end_to_end"]}
    return record


def report(record: dict):
    """Human-readable lines for one record."""
    r = record
    print(f"== {r['workload']} seed={r['fingerprint']['seed']} trace={r['trace']} "
          f"tasks={r['tasks']} attempted={r['attempted']} failed={r['failed']} "
          f"{'VALID' if r['correct'] else 'INVALID: a check failed'}")
    for line in r["failures"]:
        print(f"   failed: {line}")
    for name, m in {**r.get("named", {}), **r["metrics"]}.items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    if r["trace"]:
        print(f"   patched call sites: {', '.join(r['patched_sites'])}")
        print(f"   spans: {r['spans_file']} ({r['spans_dropped']} beyond the cap not kept)")


def save(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-smoke" if record["smoke"] else ""
    path = results / (f"{record['workload']}-seed{record['fingerprint']['seed']}"
                      f"-trace{record['trace']}{tag}.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the pmds benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: 64 KiB archive, 20 objects, GF(8) verify, 4 sims")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pmds" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'pmds'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    records = []
    try:
        for workload in chosen:
            record = run_workload(spec, workload, args.seed, seconds, bool(args.trace),
                                  args.smoke, deadline)
            report(record)
            print(f"   record: {save(record)}")
            records.append(record)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
