"""The benchmark's tracer still binds every call site it patches.

``perfbench/tracing.py`` wraps ``pmds`` functions by name, including names
bound by ``from ... import`` in callers, so a rename or a removed binding
would break the traced benchmark run.  This loads the tracer by path and
installs it around one encode/decode round trip.
"""

import importlib.util
from pathlib import Path

import numpy as np

from pmds import codec, kernels, ncsim
from pmds.fields import make_field

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_site_and_counts_the_paper_zeros():
    tracing = _load_tracing()
    matmul, decode = kernels.matmul, codec.decode
    tracer = tracing.install(tracing.Tracer())
    try:
        assert len(tracer.sites) == 31
        assert len(set(tracer.sites)) == 31
        assert "pmds.codec.solve_many" in tracer.sites
        cfg = codec.CodecConfig(make_field(2, 8), 8)
        k, words = 8, 300
        msg = np.random.default_rng(8).integers(0, 256, size=(words, k))
        shares = codec.encode(cfg, msg)
        for cols in ([3, 17, 40, 99, 128, 200, 255, 256], list(range(k + 4))):  # 4 surplus
            assert np.array_equal(codec.decode(cfg, [shares[u] for u in cols]), msg)
        # Only the encode goes through the public product: decodes stay off it.
        assert tracer.calls["kernels.matmul"] == 1
        assert tracer.counts["kernels.matmul_zero_products"] == words * (
            k * (k - 1) // 2 + (k - 1)
        )
    finally:
        tracer.uninstall()
    assert kernels.matmul is matmul and codec.decode is decode


def test_tracer_binds_the_simulator_sites():
    tracing = _load_tracing()
    tracer = tracing.install(tracing.Tracer())
    try:
        assert len(tracer.sites) == 31
        assert "pmds.ncsim.solve_many" in tracer.sites
        assert "pmds.ncsim.kernels" in tracer.sites
        # Seed 7: each receiver's first K receptions have a dependent one, so
        # each goes on through the rank tracker's insert.
        cfg = ncsim.SimConfig(make_field(2, 4), 4, 3, 0.2, "random", seed=7,
                              max_transmissions=17, payload=True)
        report = ncsim.run_sim(cfg)
        assert all(r.payload_ok for r in report.receivers if r.decoded)
        # ncsim reaches its vector ops through its `kernels` attribute.
        assert sum(tracer.calls[f"kernels.{op}"] for op in ("v_add", "v_sub", "v_mul")) > 0
        assert tracer.calls["ncsim.run_sim"] == 1
    finally:
        tracer.uninstall()
    assert ncsim.kernels is kernels
