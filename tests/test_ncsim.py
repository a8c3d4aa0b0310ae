import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pmds import kernels
from pmds.fields import make_field
from pmds.matrices import MatrixGF, rank
from pmds.ncsim import SCHEMES, SimConfig, _Accumulator, overhead_bits, random_column, run_sim
from pmds.rng import Xorshift64Star
from reference_gf import make_ref, ref_rank

F17 = make_field(17)


def test_overhead_examples():
    assert overhead_bits("random", 16, 256, 1) == 128
    assert overhead_bits("pascal", 16, 17, 17) == 5
    assert overhead_bits("random", 1, 2, 1) == 1
    assert overhead_bits("pascal", 4, 16, 1) == 0  # a single transmission needs no index bits
    with pytest.raises(ValueError):
        overhead_bits("pascal", 4, 16, 0)
    with pytest.raises(ValueError):
        overhead_bits("fountain", 4, 16, 1)


def test_overhead_monotonicity_grid():
    for k, q in product((4, 16), (16, 256)):
        for n in range(1, q + 2):
            if k * (q**k - 1).bit_length() >= (n - 1).bit_length():
                assert overhead_bits("random", k, q, n) >= overhead_bits("pascal", k, q, n)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(F17, 4, 2, 1.0, "pascal", 1, 10)  # loss = 1
    with pytest.raises(ValueError):
        SimConfig(F17, 4, 2, 0.1, "pascal", 1, 19)  # beyond q+1 columns
    with pytest.raises(ValueError):
        SimConfig(F17, 18, 2, 0.1, "pascal", 1, 18)  # K > q
    with pytest.raises(ValueError):
        SimConfig(F17, 4, 0, 0.1, "pascal", 1, 10)
    with pytest.raises(ValueError):
        SimConfig(F17, 4, 2, 0.1, "beacon", 1, 10)


@pytest.mark.parametrize("field", [make_field(2), make_field(3, 2), make_field(257)], ids=repr)
def test_accumulator_matches_oracle_rank(field):
    k, length = 6, 3
    rng = np.random.default_rng(field.q)
    cols = np.where(rng.random((16, k)) < 0.4, 0, rng.integers(1, field.q, size=(16, k)))
    cols[0] = 0  # a zero column before any basis row
    cols[4] = 0
    cols[6] = cols[2]  # a duplicate
    ref = make_ref(field)
    c = field.q - 1
    cols[9] = [ref.add(ref.mul(c, x), y) for x, y in zip(cols[1], cols[3])]  # c*col1 + col3
    cols[13] = cols[1]  # a duplicate whose payload is wrong, below
    packets = rng.integers(0, field.q, size=(k, length))

    def coded(coefs):  # the payload of a row with these coefficients
        out = [0] * length
        for a, packet in zip(coefs, packets.tolist()):
            out = [ref.add(y, ref.mul(int(a), x)) for y, x in zip(out, packet)]
        return out

    rows = np.array([[*col, *coded(col)] for col in cols.tolist()])
    rows[13, k] = ref.add(int(rows[13, k]), 1)  # dependent coefficients never pivot
    # Receiver 0 gets every row; receiver 2 only zero columns and cols 1-3;
    # receiver 3 the duplicates and the combination after their sources.
    gets = [
        range(16),
        range(0, 16, 2),
        range(5),
        (1, 2, 3, 6, 9),
    ]
    sent = rows.copy()
    acc = _Accumulator(field, k, len(gets), k + length)
    received = [[] for _ in gets]
    for i in range(len(rows)):
        ids = [r for r, got in enumerate(gets) if i in got]
        raised = acc.insert(rows[i], ids)
        assert raised.shape == (len(ids),)
        for r, up in zip(ids, raised.tolist()):
            before = ref_rank(ref, received[r]) if received[r] else 0
            received[r].append(cols[i].tolist())
            after = ref_rank(ref, received[r])
            assert up == (after > before), (i, r)
            assert acc.rank[r] == after
    ranks = acc.rank.tolist()
    assert ranks[0] == k and ranks[2] == ranks[3] == 3  # the bases sit at different ranks
    assert acc.basis.shape == (len(gets), k, k + length)  # rows grow to the highest rank
    for r, rank in enumerate(ranks):
        live, dead = acc.basis[r, :rank], acc.basis[r, rank:]
        assert not dead.any()
        assert sorted(acc.pivots[r, :rank].tolist()) == sorted(set(acc.pivots[r, :rank].tolist()))
        for basis_row in live.tolist():
            # The payload part is the same combination of the packets as
            # the coefficient part.
            assert basis_row[k:] == coded(basis_row[:k])
    assert np.array_equal(rows, sent)  # insert leaves the received rows alone


def test_lossless_pascal_decodes_at_exactly_k():
    cfg = SimConfig(F17, 5, 4, 0.0, "pascal", seed=42, max_transmissions=18)
    report = run_sim(cfg)
    assert report.all_decoded and not report.partial_failure
    assert report.transmissions_sent == 5
    for r in report.receivers:
        assert r.decoded
        assert r.transmissions_observed == 5
        assert r.received_count == 5
        assert r.receptions_at_decode == 5
        assert r.dependent_receptions == 0


def test_pascal_receptions_at_decode_is_k_under_loss():
    for seed in range(10):
        cfg = SimConfig(F17, 8, 6, 0.2, "pascal", seed=seed, max_transmissions=18)
        report = run_sim(cfg)
        for r in report.receivers:
            assert r.dependent_receptions == 0  # every reception raises the rank
            if r.decoded:
                assert r.receptions_at_decode == 8


def test_pascal_exhaustion_reports_partial_failure():
    # Heavy loss with K = q: receivers cannot all finish within q+1 columns.
    f5 = make_field(5)
    cfg = SimConfig(f5, 5, 8, 0.5, "pascal", seed=3, max_transmissions=6)
    report = run_sim(cfg)
    assert report.transmissions_sent == 6
    assert not report.all_decoded
    assert report.partial_failure
    undecoded = [r for r in report.receivers if not r.decoded]
    assert undecoded
    for r in undecoded:
        assert r.receptions_at_decode is None


def test_random_scheme_counts_dependent_receptions():
    f2 = make_field(2)
    hits = 0
    for seed in range(100):
        cfg = SimConfig(f2, 4, 1, 0.0, "random", seed=seed, max_transmissions=64)
        report = run_sim(cfg)
        assert report.aggregates["dependent_reception_count"] is not None
        if report.aggregates["dependent_reception_count"] > 0:
            hits += 1
        for r in report.receivers:
            if r.decoded:
                assert r.receptions_at_decode >= 4
    # over GF(2) the first four columns are rarely all independent (p ~ 0.31)
    assert hits >= 50


def test_random_first_k_independence_matches_enumeration():
    """Brute-force the analytic independence probability for q=2, K<=3:
    count full-rank K-tuples over all (2^K)^K column sequences."""
    f2 = make_field(2)
    for k in (2, 3):
        total = 0
        independent = 0
        for cols in product(range(2**k), repeat=k):
            total += 1
            data = [[(c >> i) & 1 for c in cols] for i in range(k)]
            if rank(MatrixGF(f2, data)) == k:
                independent += 1
        expected = Fraction(1)
        for i in range(k):
            expected *= 1 - Fraction(1, 2 ** (k - i))
        assert Fraction(independent, total) == expected


def test_random_column_draws():
    rng = Xorshift64Star.from_stream(7, 0)
    col = random_column(rng, make_field(2, 4), 5)
    assert col.shape == (5,)
    assert all(0 <= int(x) < 16 for x in col)


def test_determinism_identical_reports():
    cfg = SimConfig(F17, 6, 5, 0.3, "random", seed=99, max_transmissions=18)
    assert run_sim(cfg).to_json() == run_sim(cfg).to_json()
    other = SimConfig(F17, 6, 5, 0.3, "random", seed=100, max_transmissions=18)
    assert run_sim(cfg).to_json() != run_sim(other).to_json()


def test_payload_roundtrip_through_codec():
    cfg = SimConfig(F17, 4, 3, 0.2, "pascal", seed=11, max_transmissions=18, payload=True)
    report = run_sim(cfg)
    for r in report.receivers:
        if r.decoded:
            assert r.payload_ok is True
    cfg = SimConfig(
        make_field(2, 4), 4, 3, 0.1, "random", seed=5, max_transmissions=17, payload=True
    )
    report = run_sim(cfg)
    for r in report.receivers:
        if r.decoded:
            assert r.payload_ok is True


def test_report_shape():
    cfg = SimConfig(F17, 3, 2, 0.0, "pascal", seed=1, max_transmissions=18)
    d = run_sim(cfg).to_dict()
    assert d["config"]["field"] == "17"
    assert d["aggregates"]["decoded_count"] == 2
    assert d["aggregates"]["mean_transmissions_to_decode"] == 3.0
    assert d["aggregates"]["max_transmissions_to_decode"] == 3
    assert d["aggregates"]["dependent_reception_count"] is None  # pascal scheme
    assert d["aggregates"]["overhead_bits_per_packet"]["random"] == overhead_bits(
        "random", 3, 17, 3
    )
    assert len(d["receivers"]) == 2


# sha256 over the JSON reports of the grid below, recorded before the rank
# tracker was batched across receivers; any change to a report shows here.
GOLDEN_REPORTS_SHA256 = "830d143b58d6c109aeeb631171ad89e6b9624074937a4f89e4118fb95fd2e5a9"


def test_golden_report_digest():
    digest = hashlib.sha256()
    runs = 0
    for p, h in ((2, 1), (2, 8), (3, 2), (17, 1), (257, 1)):
        field = make_field(p, h)
        for k in (1, 3, 16):
            if k > field.q:
                continue
            for scheme, payload, seed in product(SCHEMES, (False, True), (1, 2, 3)):
                most = 2 * k + 8
                if scheme == "pascal":
                    most = min(most, field.q + 1)
                cfg = SimConfig(field, k, 4, 0.3, scheme, seed, most, payload=payload)
                digest.update(run_sim(cfg).to_json().encode())
                runs += 1
    assert runs == 144
    assert digest.hexdigest() == GOLDEN_REPORTS_SHA256


# sha256 over the JSON reports of the grid below, recorded before the
# simulator reduced each receiver's first K receptions in one stacked step.
GOLDEN_SHORT_REPORTS_SHA256 = "1b041d7144621a3cf9f70003a4a97d0d7c6942822c223c9bc9473517b6c2b688"


def test_golden_digest_of_receivers_that_fall_short():
    """Small fields and heavy loss: receivers with dependent receptions, that
    decode only after more than K receptions, or that never decode."""
    digest = hashlib.sha256()
    runs = dependent = never = late = 0
    for (p, h), k, loss, seed, payload, short in product(
        ((2, 1), (3, 1), (2, 2)), (4, 16), (0.5, 0.9), (1, 2, 3), (False, True), (True, False)
    ):
        most = k + 2 if short else 3 * k
        cfg = SimConfig(make_field(p, h), k, 6, loss, "random", seed, most, payload=payload)
        report = run_sim(cfg)
        digest.update(report.to_json().encode())
        runs += 1
        for r in report.receivers:
            dependent += r.dependent_receptions > 0
            never += not r.decoded
            late += r.decoded and r.receptions_at_decode > k
    assert runs == 144
    assert (dependent, never, late) == (120, 646, 92)  # the grid reaches every case
    assert digest.hexdigest() == GOLDEN_SHORT_REPORTS_SHA256


@pytest.mark.parametrize("field", [make_field(2, 4), F17], ids=repr)
def test_corrupt_coded_symbol_fails_the_payload_check(field, monkeypatch):
    """One wrong symbol in transmission 2's coded payload: every receiver
    that decoded with it reports payload_ok False, every other one True."""
    cfg = SimConfig(field, 4, 8, 0.3, "pascal", seed=7, max_transmissions=17, payload=True)
    assert all(r.payload_ok for r in run_sim(cfg).receivers if r.decoded)
    bad, calls = 2, []
    product = kernels.matmul

    def corrupt(a, b, *tables):
        out = product(a, b, *tables)
        if not calls:
            out[bad, 1] = field.add(int(out[bad, 1]), 1)
        calls.append(a.shape)
        return out

    monkeypatch.setattr(kernels, "matmul", corrupt)
    report = run_sim(cfg)
    assert calls == [(report.transmissions_sent, 4)]  # one product codes every payload
    erase_below = int(cfg.erasure_prob * (1 << 32))
    used = []
    for r in report.receivers:
        draws = Xorshift64Star.from_stream(cfg.seed, 1 + r.receiver_id)
        got = [draws.next_u32() >= erase_below for _ in range(r.transmissions_observed)]
        assert r.decoded  # every pascal reception raises the rank
        used.append(len(got) > bad and got[bad])
        assert r.payload_ok is (not used[-1]), r.receiver_id
    assert any(used) and not all(used)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_large_k_simulate_memory_stays_bounded(scheme, pmds_peak_kib):
    """A K=2048 run of three transmissions keeps bases of at most three rows
    and, for the pascal scheme, builds only the three coefficient columns it
    sends (not the 2048 x 65,537 generator): its peak RSS stays near the
    interpreter's own."""
    code, peak_kib, err = pmds_peak_kib(
        "simulate", "--field", "2^16", "--k", "2048", "--receivers", "2", "--loss", "0",
        "--scheme", scheme, "--seed", "1", "--max-tx", "3", "--payload",
    )
    assert code == 0, err
    assert peak_kib < 64 * 1024
