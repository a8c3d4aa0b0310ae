"""One benchmark process: a set-up probe, a timed run or a traced run.

``run.py`` starts each in a fresh single-threaded interpreter, with
``src`` on the import path, and reads the JSON object this prints last.

    python3 perfbench/worker.py --workload W --seed N --mode probe|run|trace
        [--seconds S] [--smoke] --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter


def timed_tasks(workload, checks, seconds: float) -> dict:
    """Run whole tasks until `seconds` have passed (at least one task)."""
    samples: dict[str, list] = {"task_s": []}
    start = clock()
    while True:
        t0 = clock()
        workload.run_task(samples, checks)
        samples["task_s"].append(clock() - t0)
        if clock() - start >= seconds:
            return samples


def run_untraced(workload, checks, seconds: float) -> dict:
    """Set up, warm up, then time tasks for `seconds` with no tracing."""
    workload.setup()
    workload.prepare()
    workload.warm_up(checks)
    samples = timed_tasks(workload, checks, seconds)
    summary = workload.summarize(samples)
    return {
        "tasks": len(samples["task_s"]),
        "named": summary["named"],
        "rate_per_s": summary["rate_per_s"],
        "call_ms_p50": statistics.median(summary["call_ms"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, checks, seconds: float, out_dir: Path) -> dict:
    """Trace set-up, then time N untraced tasks in seconds/2 and the same N
    tasks traced; per-layer figures are per traced task."""
    import tracing

    setup_tracer = tracing.install(tracing.Tracer())
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()
    workload.prepare()
    workload.warm_up(checks)
    plain = timed_tasks(workload, checks, seconds / 2)
    tasks = len(plain["task_s"])

    tracer = tracing.install(tracing.Tracer())
    per_task_counts = []
    try:
        traced = {"task_s": []}
        for _ in range(tasks):
            before = dict(tracer.counts)
            t0 = clock()
            workload.run_task(traced, checks)
            traced["task_s"].append(clock() - t0)
            per_task_counts.append(
                {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            )
    finally:
        tracer.uninstall()

    # Counts are exact: every traced task of one run must give the same ones.
    for counts in per_task_counts[1:]:
        checks.check(counts == per_task_counts[0], "per-task counters differ between tasks")
    if hasattr(workload, "check_counts"):
        workload.check_counts(per_task_counts[0], checks)

    overhead = statistics.median(traced["task_s"]) / statistics.median(plain["task_s"]) - 1
    spans_file = out_dir / f"spans-{workload.name}.jsonl"
    tracer.write_spans(spans_file)
    return {
        "tasks": tasks,
        "per_layer": layer_metrics(tracer, setup_tracer, tasks, overhead),
        "patched_sites": tracer.sites,
        "spans_file": str(spans_file),
        "spans_dropped": tracer.dropped,
    }


def layer_metrics(tracer, setup, tasks: int, overhead: float) -> dict:
    """Per-task layer figures from the traced tasks; the two build metrics
    add the traced set-up, which is where builds normally happen."""
    t, s, c, g, n = tracer.total, tracer.self_time, tracer.calls, tracer.group_time, tracer.counts

    def per(x):
        return x / tasks

    decode_s = tracer.durations["codec.decode"]
    vector_ops = ("kernels.v_add", "kernels.v_sub", "kernels.v_mul")
    subsets = n["codes.subsets_checked"]
    receptions = n["ncsim.receptions"]
    return {
        "cli.self_s": per(s["cli.main"]),
        "codec.encode_s": per(t["codec.encode"]),
        "codec.encode_self_s": per(s["codec.encode"]),
        "codec.write_share_s": per(t["codec.write_share"]),
        "codec.read_share_s": per(t["codec.read_share"]),
        "codec.bytes_written": per(n["codec.bytes_written"]),
        "codec.bytes_read": per(n["codec.bytes_read"]),
        "codec.framing_s": per(t["codec.bytes_to_words"] + t["codec.words_to_bytes"]),
        "codec.decode_calls": per(c["codec.decode"]),
        "codec.decode_us_p50": statistics.median(decode_s) * 1e6 if decode_s else 0.0,
        "codec.decode_self_s": per(s["codec.decode"]),
        "matrices.solve_many_calls": per(c["matrices.solve_many"]),
        "matrices.solve_many_s": per(t["matrices.solve_many"]),
        "kernels.matmul_calls": per(c["kernels.matmul"]),
        "kernels.matmul_s": per(t["kernels.matmul"]),
        "kernels.matmul_products": per(n["kernels.matmul_products"]),
        "kernels.matmul_zero_products": per(n["kernels.matmul_zero_products"]),
        "kernels.matmul_bytes": per(n["kernels.matmul_bytes"]),
        "kernels.solve_calls": per(c["kernels.solve_in_place"]),
        "kernels.solve_s": per(t["kernels.solve_in_place"]),
        "kernels.mds_scan_s": per(t["kernels.mds_scan"]),
        "codes.is_mds_calls": per(c["codes.is_mds"]),
        "codes.is_mds_s": per(t["codes.is_mds"]),
        "codes.subsets_checked": per(subsets),
        "codes.us_per_subset": t["codes.is_mds"] / subsets * 1e6 if subsets else 0.0,
        "kernels.vector_calls": per(sum(c[op] for op in vector_ops)),
        "kernels.vector_s": per(g["kernels.vector"]),
        "ncsim.run_sim_s": per(t["ncsim.run_sim"]),
        "ncsim.transmissions": per(n["ncsim.transmissions"]),
        "ncsim.receptions": per(receptions),
        "ncsim.useful_reception_ratio": (
            n["ncsim.useful_receptions"] / receptions if receptions else 0.0
        ),
        "rng.draws": per(n["rng.draws"]),
        "rng.draw_s": per(g["rng.draw"]),
        "fields.table_build_s": setup.total["fields.GF"] + per(t["fields.GF"]),
        "pascal.generator_build_s": setup.group_time["pascal.build"] + per(g["pascal.build"]),
        "trace.overhead_frac": overhead,
        "trace.patched_sites": len(tracer.sites),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    # setup_s: from importing pmds until the workload's fields and generators exist.
    t0 = clock()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.out_dir)
    if args.mode == "probe":
        workload.setup()
        print(json.dumps({"setup_s": clock() - t0}))
        return 0

    print(json.dumps(measure(workload, args.mode, args.seconds, args.out_dir)))
    return 0


def measure(workload, mode: str, seconds: float, out_dir: Path) -> dict:
    """A timed ("run") or traced ("trace") run, with its check counts."""
    import numpy
    import workloads
    from pmds import kernels

    checks = workloads.Checks()
    if mode == "run":
        result = run_untraced(workload, checks, seconds)
    else:
        result = run_traced(workload, checks, seconds, out_dir)
    result.update(
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.messages,
        numpy=numpy.__version__,
        backend=getattr(kernels, "BACKEND", None),
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
