"""The four benchmark workloads, driven through the public API of pmds.

Each workload is a closed loop on one thread: the next call starts only
after the last one returned.  Inputs come from the workload seed alone and
every output is checked; a failed check is counted, never skipped.

A workload object has four steps:

* ``setup()`` builds the workload's fields and generators (what ``setup_s``
  times in a fresh process, together with ``import pmds``);
* ``prepare()`` makes the seeded inputs (untimed);
* ``warm_up(checks)`` runs a small version of a task so lazy set-up is done
  before timing starts;
* ``run_task(samples, checks)`` runs one task, the unit that is repeated
  for the length of a run, appending timings to ``samples``.

``summarize(samples)`` turns the samples into the workload's named metrics.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import tempfile
import time
from math import comb
from pathlib import Path

import numpy as np

from pmds import cli, codec, codes, fields, ncsim, pascal
from pmds.matrices import MatrixGF

MiB = 1 << 20
clock = time.perf_counter


def seeded(seed: int, stream: int) -> np.random.Generator:
    """The input generator of one workload; any integer seed is accepted."""
    return np.random.default_rng([seed % (1 << 64), stream])


class Checks:
    """Counts checked operations and failures; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def quiet(argv) -> tuple[int, str]:
    """cli.main with its stdout captured, so it stays off the result stream."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100 * len(ordered))))
    return ordered[rank - 1]


def block_rate(durations, size: int) -> float:
    """Median calls per second over consecutive blocks of `size` calls.

    The machine's speed drifts from second to second; a median over short
    blocks is steadier than one rate over the whole run.
    """
    size = min(size, len(durations))
    blocks = [sum(durations[i:i + size]) for i in range(0, len(durations) - size + 1, size)]
    return statistics.median(size / b for b in blocks)


def lex_rank(combo, n: int) -> int:
    """Index of a k-subset of [0, n) in lexicographic order."""
    k, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        for x in range(prev + 1, c):
            rank += comb(n - x - 1, k - i - 1)
        prev = c
    return rank


class Archive:
    """1 MiB file -> 257 share files via ``pmds encode`` -> 4 ``pmds decode``
    rebuilds from seeded K-subsets, each compared byte for byte."""

    name = "archive"
    field_spec = "2^8"
    k = 8

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.size = (64 << 10) if smoke else MiB
        self.workdir = workdir

    def setup(self):
        field = fields.parse_field_spec(self.field_spec)
        self.config = codec.CodecConfig(field=field, k=self.k)
        self.generator = codec.generator_matrix(self.config)

    def prepare(self):
        rng = seeded(self.seed, 0)
        self.data = rng.integers(0, 256, self.size, dtype=np.uint8).tobytes()
        n = self.config.n
        self.subsets = [sorted(rng.choice(n, self.k, replace=False).tolist()) for _ in range(4)]

    def warm_up(self, checks: Checks):
        self._round_trip(self.data[:4096], self.subsets[:1], {}, checks)

    def run_task(self, samples: dict, checks: Checks):
        self._round_trip(self.data, self.subsets, samples, checks)

    def _round_trip(self, data, subsets, samples, checks):
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            tmp = Path(tmp)
            src, share_dir = tmp / "input.bin", tmp / "shares"
            src.write_bytes(data)
            t0 = clock()
            rc, _ = quiet(["encode", "--field", self.field_spec, "--k", str(self.k),
                           "--in", str(src), "--out-dir", str(share_dir)])
            samples.setdefault("encode_s", []).append(clock() - t0)
            made = len(list(share_dir.glob("share_*.bin")))
            checks.check(rc == 0 and made == self.config.n, f"encode rc={rc} shares={made}")
            for i, subset in enumerate(subsets):
                out = tmp / f"rebuilt_{i}.bin"
                paths = [str(share_dir / f"share_{u}.bin") for u in subset]
                t0 = clock()
                rc, _ = quiet(["decode", "--out", str(out), *paths])
                samples.setdefault("decode_s", []).append(clock() - t0)
                ok = rc == 0 and out.read_bytes() == data
                checks.check(ok, f"decode of shares {subset}: rc={rc}, rebuilt bytes differ")
        samples.setdefault("bytes", []).append(len(data))

    def check_counts(self, counts, checks: Checks):
        """The encode's zero products are exactly W x the paper's zero count.

        Every byte is one GF(2^8) symbol, so the file is W = size/K words, and
        the supplemented Pascal generator has k(k-1)/2 + (k-1) zeros.
        """
        words = -(-self.size // self.k)
        paper = self.k * (self.k - 1) // 2 + (self.k - 1)
        measured = pascal.sparsity_report(self.generator).zeros
        got = counts["kernels.matmul_zero_products"]
        checks.check(
            got == words * paper == words * measured,
            f"matmul zero products {got} != {words} x {paper} (sparsity report {measured})",
        )

    def summarize(self, samples) -> dict:
        mib = samples["bytes"][0] / MiB
        encode = statistics.median(mib / s for s in samples["encode_s"])
        decode_ms = [s * 1e3 for s in samples["decode_s"]]
        per_task = len(self.subsets)
        totals = [sum(samples["decode_s"][i:i + per_task])
                  for i in range(0, len(decode_ms), per_task)]
        return {
            "named": {
                "encode_MiBps": encode,
                "decode_MiBps": statistics.median(per_task * mib / t for t in totals),
            },
            "rate_per_s": encode,
            "call_ms": decode_ms,
        }


class Objects:
    """1,000 seeded 4 KiB objects through the codec at GF(257), K=16, n=20,
    with frames in memory and K shares chosen from 8 recurring failure
    patterns."""

    name = "objects"
    p, k, n = 257, 16, 20
    patterns = 8

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.count = 20 if smoke else 1000

    def setup(self):
        field = fields.make_field(self.p)
        self.config = codec.CodecConfig(field=field, k=self.k, n=self.n)
        self.generator = codec.generator_matrix(self.config)

    def prepare(self):
        rng = seeded(self.seed, 1)
        self.objects = [rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
                        for _ in range(self.count)]
        kept = [sorted(rng.choice(self.n, self.k, replace=False).tolist())
                for _ in range(self.patterns)]
        self.kept = [kept[i] for i in rng.integers(0, self.patterns, self.count)]

    def warm_up(self, checks: Checks):
        self._round_trips(self.objects[:4], self.kept[:4], {}, checks)

    def run_task(self, samples: dict, checks: Checks):
        self._round_trips(self.objects, self.kept, samples, checks)

    def _round_trips(self, objects, kept, samples, checks):
        config = self.config
        decode_s = samples.setdefault("decode_s", [])
        round_trip_s = samples.setdefault("round_trip_s", [])
        for obj, coords in zip(objects, kept):
            start = clock()
            words, length = codec.bytes_to_words(config, obj)
            frames = {}
            for share in codec.encode(config, words):
                buf = io.BytesIO()
                codec.write_share(buf, config, share, length)
                frames[share.u] = buf.getvalue()
            t0 = clock()
            got = [codec.read_share(io.BytesIO(frames[u]))[1] for u in coords]
            rebuilt = codec.words_to_bytes(config, codec.decode(config, got), length)
            end = clock()
            decode_s.append(end - t0)
            round_trip_s.append(end - start)
            checks.check(rebuilt == obj, f"object rebuilt from {coords} differs")

    def summarize(self, samples) -> dict:
        rate = block_rate(samples["round_trip_s"], 50)
        decode_ms = [s * 1e3 for s in samples["decode_s"]]
        return {
            "named": {
                "objects_per_s": rate,
                "decode_ms_p50": statistics.median(decode_ms),
                "decode_ms_p99": percentile(decode_ms, 99),
            },
            "rate_per_s": rate,
            "call_ms": decode_ms,
        }


class Verify:
    """Full ``is_mds`` scan of the supplemented Pascal H over GF(32), k=5; a
    planted refutation (H with its unit column duplicated); ``pmds selftest``."""

    name = "verify"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # The inputs are fixed matrices: the seed selects nothing here.
        self.q, self.k = (8, 3) if smoke else (32, 5)

    def setup(self):
        field = fields.make_field(2, self.q.bit_length() - 1)
        self.h = pascal.supplemented_pascal(field, self.k)
        self.planted = MatrixGF(field, np.hstack([self.h.data, self.h.data[:, -1:]]))
        for order in cli.SELFTEST_ORDERS:
            fields.field_from_order(order)

    def prepare(self):
        q, k = self.q, self.k
        self.subsets = comb(q + 1, k)
        # H is MDS, so the first dependent subset holds both unit columns.
        self.witness = list(range(k - 2)) + [q, q + 1]
        self.witness_checked = lex_rank(self.witness, q + 2) + 1

    def warm_up(self, checks: Checks):
        v = codes.is_mds(pascal.supplemented_pascal(self.h.field, 2))
        checks.check(v.is_mds, "warm-up scan refuted an MDS matrix")

    def run_task(self, samples: dict, checks: Checks):
        t0 = clock()
        v = codes.is_mds(self.h)
        samples.setdefault("scan_s", []).append(clock() - t0)
        checks.check(
            v.is_mds and v.witness is None and v.subsets_checked == self.subsets,
            f"H scan: is_mds={v.is_mds} subsets={v.subsets_checked}",
        )
        v = codes.is_mds(self.planted)
        checks.check(
            not v.is_mds and v.witness == self.witness
            and v.subsets_checked == self.witness_checked,
            f"planted refutation: witness={v.witness} subsets={v.subsets_checked}",
        )
        t0 = clock()
        rc, out = quiet(["selftest"])
        samples.setdefault("selftest_s", []).append(clock() - t0)
        checks.check(rc == 0 and out.rstrip().endswith("ALL PASS"), f"selftest rc={rc}")

    def summarize(self, samples) -> dict:
        rate = statistics.median(self.subsets / s for s in samples["scan_s"])
        return {
            "named": {
                "subsets_per_s": rate,
                "selftest_s": statistics.median(samples["selftest_s"]),
            },
            "rate_per_s": rate,
            "call_ms": [s * 1e3 for s in samples["selftest_s"]],
        }


class Broadcast:
    """``ncsim.run_sim`` at GF(2^8), K=16, 10 receivers, loss 0.2, payload on,
    for 50 consecutive seeds from the workload seed and both schemes."""

    name = "broadcast"
    k = 16

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.seeds = 2 if smoke else 50

    def setup(self):
        self.field = fields.make_field(2, 8)
        pascal.supplemented_pascal(self.field, self.k)

    def prepare(self):
        self.configs = [
            ncsim.SimConfig(field=self.field, k=self.k, receivers=10, erasure_prob=0.2,
                            scheme=scheme, seed=s, max_transmissions=self.field.q + 1,
                            payload=True)
            for s in range(self.seed, self.seed + self.seeds)
            for scheme in ncsim.SCHEMES
        ]

    def warm_up(self, checks: Checks):
        self._check(ncsim.run_sim(self.configs[0]), checks)

    def run_task(self, samples: dict, checks: Checks):
        sim_s = samples.setdefault("sim_s", [])
        first = None
        for config in self.configs:
            t0 = clock()
            report = ncsim.run_sim(config)
            sim_s.append(clock() - t0)
            self._check(report, checks)
            first = first or report.to_json()
        again = ncsim.run_sim(self.configs[0]).to_json()
        checks.check(again == first, "the same config gave a different report")

    def _check(self, report, checks: Checks):
        cfg = report.config
        ok = all(
            (not r.decoded or r.payload_ok)
            and (cfg.scheme != "pascal" or (r.decoded and r.receptions_at_decode == cfg.k))
            for r in report.receivers
        )
        checks.check(ok, f"{cfg.scheme} seed {cfg.seed}: receiver check failed")

    def summarize(self, samples) -> dict:
        rate = block_rate(samples["sim_s"], 2 * len(ncsim.SCHEMES))
        return {
            "named": {"sims_per_s": rate},
            "rate_per_s": rate,
            "call_ms": [s * 1e3 for s in samples["sim_s"]],
        }


WORKLOADS = {w.name: w for w in (Archive, Objects, Verify, Broadcast)}
