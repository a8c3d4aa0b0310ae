"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run every workload in smoke mode (tiny inputs), check that each metric
named in BENCHMARK.json is emitted with its unit, and check that a planted
bad output is counted as a failure rather than reported as a pass.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_archive_counts_the_paper_zeros_and_lists_patched_sites():
    result = smoke("archive", 1)
    k, words = 8, (64 << 10) // 8
    zeros = result["metrics"]["kernels.matmul_zero_products"]["value"]
    assert zeros == words * (k * (k - 1) // 2 + (k - 1))
    record = json.loads((HERE / "out" / "results" / "archive-seed3-trace1-smoke.json").read_text())
    for site in ("pmds.codec.solve_many", "pmds.ncsim.solve_many",
                 "pmds.pascal.v_mul", "pmds.pascal.v_sub"):
        assert site in record["patched_sites"]


def test_flipped_byte_in_a_rebuild_is_counted_and_marks_the_run_invalid(tmp_path, monkeypatch):
    from pmds import codec

    real = codec.words_to_bytes

    def flip_one_byte(*args, **kwargs):
        data = bytearray(real(*args, **kwargs))
        data[len(data) // 2] ^= 0x01
        return bytes(data)

    monkeypatch.setattr(codec, "words_to_bytes", flip_one_byte)
    archive = workloads.Archive(seed=5, smoke=True, workdir=tmp_path)
    child = worker.measure(archive, "run", seconds=0, out_dir=tmp_path)
    # One task: 1 encode + 4 decodes, after a warm-up of 1 encode + 1 decode.
    assert (child["attempted"], child["failed"]) == (7, 5)
    record = run.make_record(SPEC, child, [0.1], "archive", 5, 0, trace=False, smoke=True)
    assert record["correct"] is False
    assert record["named"]["error_rate"]["value"] == pytest.approx(5 / 7)


def test_planted_refutation_expects_the_lexicographically_first_witness(tmp_path):
    verify = workloads.Verify(seed=0, smoke=False, workdir=tmp_path)
    verify.prepare()
    assert verify.subsets == 237_336
    assert verify.witness == [0, 1, 2, 32, 33]
    assert verify.witness_checked == 465


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "archive", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_records_from_unlike_environments(tmp_path):
    record = {"workload": "objects", "trace": 0,
              "fingerprint": {"backend": "numpy", "nproc": 2},
              "metrics": {"rate_per_s": {"value": 100.0, "unit": "1/s"}}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    record["fingerprint"]["nproc"] = 4
    (tmp_path / "b.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2


def test_benchmark_json_stays_within_its_limits():
    assert len(json.dumps(SPEC)) <= 64 << 10
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {"setup_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
