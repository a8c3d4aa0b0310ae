from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pmds.fields import make_field
from pmds.matrices import MatrixGF, rank
from pmds.ncsim import SimConfig, _Accumulator, overhead_bits, random_column, run_sim
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
    k = 6
    rng = np.random.default_rng(field.q)
    cols = np.where(rng.random((16, k)) < 0.4, 0, rng.integers(1, field.q, size=(16, k)))
    cols[0] = 0  # a zero column before any basis row
    cols[4] = 0
    cols[6] = cols[2]  # a duplicate
    ref = make_ref(field)
    c = field.q - 1
    cols[9] = [ref.add(ref.mul(c, x), y) for x, y in zip(cols[1], cols[3])]  # c*col1 + col3
    sent = cols.copy()
    acc = _Accumulator(field, k)
    before = 0
    for i in range(len(cols)):
        after = ref_rank(ref, cols[: i + 1].tolist())
        assert acc.insert(cols[i]) == (after > before), i
        assert acc.rank == after
        before = after
    assert before == k  # the basis filled up, so later columns were all dependent
    assert np.array_equal(cols, sent)  # insert leaves the received columns alone


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
