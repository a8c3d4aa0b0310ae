"""Seeded broadcast simulator: Pascal-matrix vs random-coefficient coding.

One sender broadcasts linear combinations of K packets; transmission u
carries coefficient column u (column u of the supplemented Pascal matrix for
scheme "pascal", a fresh uniform column for scheme "random").  Each receiver
loses every transmission independently with the configured probability and
decodes once its received columns reach rank K.

For the pascal scheme the first K receptions are always independent, so
receptions_at_decode is exactly K; the scheme has only q+1 columns, and a
receiver still short of rank K when they run out is reported as a partial
failure (there is no wrap-around: repeating columns would break the
any-K-columns guarantee).

Per-packet coefficient overhead: the random scheme must ship all K
coefficients, ceil(K*log2(q)) bits; the pascal scheme ships only the column
index u, ceil(log2(n)) bits for n transmissions.

Rank tracking, in two phases.  Phase 1 reduces each receiver's first
K receptions at once: the rows (a coefficient column, then its coded
payload, K + L entries where L is ``PAYLOAD_LEN`` with payload, else 0) of
every transmission up to the latest K-th reception are built together, the
payloads by one (sent x K)(K x L) product, and each receiver's received rows,
padded with zero rows, form one int64 stack (receivers, min(K,
max_transmissions), K + L) that ``kernels._reduce_stack`` brings to reduced
row-echelon form, one stacked ``kernels._pivot`` per column.  A receiver at
rank K decodes at its K-th reception, and every reception that did not
raise the rank is a dependent one.  The coded payload rides in the same
rows, so at rank K the coefficient part is the identity and row t must hold
packet t: that is the payload check, with no second elimination.  Phase 2
takes the receivers with K receptions short of rank K: ``_Accumulator``
keeps their reduced bases as one stack, and each later transmission is
reduced for every receiver that got it in one batched step (its entries at
each basis's pivots are its coordinates, one ``kernels._span`` and one
``v_sub`` remove the span, and one stacked ``kernels._pivot`` adds the
rank-raising rows), until they decode or the transmissions run out.  The
phase-1 stack is the largest allocation; ``run_sim`` refuses a config whose
stack would exceed ``BASIS_BUDGET_BYTES`` with ``ValueError`` before any draw.

Determinism: all randomness flows from the xorshift64* streams of ``rng``
(stream 0 = sender coefficients, stream 1+r = receiver r erasures, stream
receivers+1 = payload symbols).  A transmission is erased for a receiver
when the stream's next 32-bit draw is < floor(loss * 2^32).  A receiver
draws once per transmission while it is undecoded, and it cannot decode
before its K-th reception, so phase 1 draws each receiver's stream up to its
K-th reception (or max_transmissions) and phase 2 goes on from there: the
draws, and so the reports, are those of one transmission-by-transmission
loop.  The sender's stream does not depend on the receivers; it draws the
columns of transmissions 0..sent-1 in order, phase 1's together and phase
2's one at a time.  Reports with equal configs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import kernels
from .fields import GF
from .pascal import generator_columns
from .rng import Xorshift64Star
# Not called here: the benchmark's tracer patches these bindings by name.
from .matrices import solve_many  # noqa: F401
from .pascal import supplemented_pascal  # noqa: F401

SCHEMES = ("pascal", "random")
PAYLOAD_LEN = 4  # symbols per packet when payload simulation is on
# The largest stack of bases a run may hold: receivers x min(K, max
# transmissions) x (K + payload) int64 entries, checked before any draw.
BASIS_BUDGET_BYTES = 1 << 27


@dataclass(frozen=True)
class SimConfig:
    field: GF
    k: int
    receivers: int
    erasure_prob: float
    scheme: str
    seed: int
    max_transmissions: int
    payload: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0 <= self.erasure_prob < 1:
            raise ValueError(f"erasure probability must be in [0, 1), got {self.erasure_prob}")
        if self.receivers < 1:
            raise ValueError("need at least one receiver")
        if self.max_transmissions < 1:
            raise ValueError("need at least one transmission")
        if self.k < 1:
            raise ValueError(f"K must be >= 1, got {self.k}")
        if self.scheme == "pascal":
            if self.k > self.field.q:
                raise ValueError(
                    f"pascal scheme needs K <= q = {self.field.q}, got {self.k}"
                )
            if self.max_transmissions > self.field.q + 1:
                raise ValueError(
                    f"pascal scheme has only q+1 = {self.field.q + 1} coefficient columns"
                )


@dataclass
class ReceiverStats:
    receiver_id: int
    transmissions_observed: int = 0
    received_count: int = 0
    decoded: bool = False
    receptions_at_decode: int | None = None
    dependent_receptions: int = 0
    payload_ok: bool | None = None


@dataclass
class SimReport:
    config: SimConfig
    transmissions_sent: int
    receivers: list[ReceiverStats]
    all_decoded: bool
    partial_failure: bool
    aggregates: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "field": cfg.field.spec,
                "k": cfg.k,
                "receivers": cfg.receivers,
                "erasure_prob": cfg.erasure_prob,
                "scheme": cfg.scheme,
                "seed": cfg.seed,
                "max_transmissions": cfg.max_transmissions,
                "payload": cfg.payload,
            },
            "transmissions_sent": self.transmissions_sent,
            "all_decoded": self.all_decoded,
            "partial_failure": self.partial_failure,
            "receivers": [
                {
                    "id": r.receiver_id,
                    "transmissions_observed": r.transmissions_observed,
                    "received_count": r.received_count,
                    "decoded": r.decoded,
                    "receptions_at_decode": r.receptions_at_decode,
                    "dependent_receptions": r.dependent_receptions,
                    "payload_ok": r.payload_ok,
                }
                for r in self.receivers
            ],
            "aggregates": self.aggregates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def overhead_bits(scheme: str, k: int, q: int, n_transmissions: int) -> int:
    """Coefficient overhead in bits per packet (exact integer ceilings)."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if n_transmissions < 1:
        raise ValueError("n_transmissions must be >= 1")
    if scheme == "random":
        return (q**k - 1).bit_length()  # ceil(K * log2 q)
    return (n_transmissions - 1).bit_length()  # ceil(log2 n)


def random_column(rng: Xorshift64Star, field: GF, k: int) -> np.ndarray:
    """K independent uniform draws over [0, q): one coefficient column."""
    return np.array([rng.uniform(field.q) for _ in range(k)], dtype=np.int64)


class _Accumulator:
    """The rank trackers of all receivers: one basis per receiver of the span
    of its received rows, in reduced row-echelon form, as one int64 stack.

    A row is a coefficient column (K entries) followed by its coded payload,
    if any, ``width`` entries in all; pivots lie in the coefficient part.
    ``basis[i, t]`` is row t of receiver i, ``pivots[i, t]`` its pivot column
    and ``rank[i]`` the number of live rows; the rows past the rank are zero,
    with pivot column 0.  Each basis has K rows.
    """

    def __init__(self, field: GF, k: int, receivers: int, width: int):
        self.field = field
        self.k = k
        self.basis = np.zeros((receivers, k, width), dtype=np.int64)
        self.pivots = np.zeros((receivers, k), dtype=np.intp)
        self.rank = np.zeros(receivers, dtype=np.intp)

    def insert(self, row: np.ndarray, receivers) -> np.ndarray:
        """Reduce the row against the bases of the given receivers; for each,
        True if the row raised its rank."""
        tables = self.field.tables()
        ids = np.asarray(receivers, dtype=np.intp)
        # Each basis is reduced, so the row's entries at its pivots are the
        # row's coordinates along its rows (zero rows add nothing).
        span = kernels._span(row[self.pivots[ids]], self.basis[ids], *tables)
        v = kernels.v_sub(row, span, self.field.p, self.field.h)
        coef = v[:, : self.k] != 0
        raised = coef.any(axis=1)
        if raised.any():
            ids, v, cols = ids[raised], v[raised], coef[raised].argmax(axis=1)
            at = self.rank[ids]
            m = self.basis[ids]
            m[np.arange(ids.size), at] = v
            kernels._pivot(m, at, cols, *tables)
            self.basis[ids] = m
            self.pivots[ids, at] = cols
            self.rank[ids] = at + 1
        return raised


def run_sim(config: SimConfig) -> SimReport:
    """Run one broadcast block; fully deterministic given the config."""
    field, k = config.field, config.k
    q, tables = field.q, field.tables()
    most = config.max_transmissions
    width = k + (PAYLOAD_LEN if config.payload else 0)
    depth = min(k, most)  # the most receptions a receiver reduces in phase 1
    need = config.receivers * depth * width * 8
    if need > BASIS_BUDGET_BYTES:
        raise ValueError(
            f"simulation needs {need} bytes of bases (receivers x min(K, max "
            f"transmissions) x (K + payload) x 8), above the budget of "
            f"{BASIS_BUDGET_BYTES}"
        )
    sender_rng = Xorshift64Star.from_stream(config.seed, 0)
    erase_below = int(config.erasure_prob * (1 << 32))

    packets = None
    if config.payload:
        payload_rng = Xorshift64Star.from_stream(config.seed, config.receivers + 1)
        packets = np.array(
            [[payload_rng.uniform(q) for _ in range(PAYLOAD_LEN)] for _ in range(k)],
            dtype=np.int64,
        )

    def coded_rows(start, stop):
        """The rows of transmissions start..stop-1: coefficient columns, then
        their coded payload, all coded with one product."""
        if config.scheme == "pascal":
            cols = generator_columns(field, k, "supplemented_pascal", range(start, stop)).T
        else:
            cols = np.array([random_column(sender_rng, field, k) for _ in range(start, stop)])
        if packets is None:
            return cols
        return np.concatenate([cols, kernels.matmul(cols, packets, *tables)], axis=1)

    # Phase 1: each receiver's erasures up to its K-th reception.
    stats = [ReceiverStats(receiver_id=r) for r in range(config.receivers)]
    receptions, streams = [], []
    for st in stats:
        rng = Xorshift64Star.from_stream(config.seed, 1 + st.receiver_id)
        got, u = [], 0
        while len(got) < k and u < most:
            if rng.next_u32() >= erase_below:
                got.append(u)
            u += 1
        st.transmissions_observed, st.received_count = u, len(got)
        receptions.append(got)
        streams.append(rng)
    full = all(len(got) == k for got in receptions)
    sent = max(got[-1] for got in receptions) + 1 if full else most
    rows = coded_rows(0, sent)
    # Receiver i's received rows, padded with a zero row to depth rows.
    pad = np.concatenate([rows, np.zeros((1, width), np.int64)])
    stack = pad[[got + [sent] * (depth - len(got)) for got in receptions]]
    rank = kernels._reduce_stack(stack, k, *tables)
    ok = None if packets is None or depth < k else (stack[:, :, k:] == packets).all(axis=(1, 2))
    rest = []  # receivers with K receptions short of rank K
    for i, (st, got) in enumerate(zip(stats, receptions)):
        st.dependent_receptions = len(got) - int(rank[i])
        if rank[i] == k:
            # A reduced basis of rank K over K columns is the identity with
            # the coded packets in order: row t must carry packet t.
            st.decoded, st.receptions_at_decode = True, k
            if ok is not None:
                st.payload_ok = bool(ok[i])
        elif len(got) == k:
            rest.append(i)

    # Phase 2: receivers short of rank K go on one transmission at a time.
    if rest:
        acc = _Accumulator(field, k, len(rest), width)
        acc.basis, acc.rank = stack[rest], rank[rest]
        acc.basis[np.arange(k) >= acc.rank[:, None]] = 0  # dependent rows drop out
        acc.pivots = (acc.basis[:, :, :k] != 0).argmax(axis=2)
        pending = {r: a for a, r in enumerate(rest)}  # receiver -> its basis in acc
        u = min(receptions[r][-1] for r in rest) + 1
        while pending and u < most:
            row = rows[u] if u < sent else coded_rows(u, u + 1)[0]
            got = []
            for r in pending:
                if u > receptions[r][-1]:  # phase 1 drew up to its K-th reception
                    stats[r].transmissions_observed = u + 1
                    if streams[r].next_u32() >= erase_below:
                        stats[r].received_count += 1
                        got.append(r)
            u += 1
            if not got:
                continue
            for r, raised in zip(got, acc.insert(row, [pending[r] for r in got]).tolist()):
                st, a = stats[r], pending[r]
                if not raised:
                    st.dependent_receptions += 1
                elif acc.rank[a] == k:
                    st.decoded = True
                    st.receptions_at_decode = st.received_count
                    del pending[r]
                    if packets is not None:
                        # At rank K the coefficient part of the basis is the
                        # identity up to row order, so row t must carry
                        # packet pivots[t].
                        st.payload_ok = bool(
                            np.array_equal(acc.basis[a, :, k:], packets[acc.pivots[a]])
                        )
        sent = max(sent, u)

    all_decoded = all(s.decoded for s in stats)
    decoded_tx = [s.transmissions_observed for s in stats if s.decoded]
    aggregates = {
        "decoded_count": len(decoded_tx),
        "mean_transmissions_to_decode": (
            sum(decoded_tx) / len(decoded_tx) if decoded_tx else None
        ),
        "max_transmissions_to_decode": max(decoded_tx) if decoded_tx else None,
        "dependent_reception_count": (
            sum(s.dependent_receptions for s in stats) if config.scheme == "random" else None
        ),
        "overhead_bits_per_packet": {
            "pascal": overhead_bits("pascal", k, q, max(sent, 1)),
            "random": overhead_bits("random", k, q, max(sent, 1)),
        },
    }
    return SimReport(
        config=config,
        transmissions_sent=sent,
        receivers=stats,
        all_decoded=all_decoded,
        partial_failure=not all_decoded,
        aggregates=aggregates,
    )


# CSV columns: config fields, then receiver fields (``field`` as its spec).
_CONFIG_COLUMNS = (
    "scheme", "seed", "field", "k", "receivers", "erasure_prob", "max_transmissions"
)
_RECEIVER_COLUMNS = (
    "receiver_id",
    "transmissions_observed",
    "received_count",
    "decoded",
    "receptions_at_decode",
    "dependent_receptions",
)
CSV_FIELDS = [*_CONFIG_COLUMNS, *_RECEIVER_COLUMNS]


def report_csv_rows(report: SimReport) -> list[dict]:
    """One flat dict per receiver for CSV sweeps, keyed by ``CSV_FIELDS``."""
    head = {name: getattr(report.config, name) for name in _CONFIG_COLUMNS}
    head["field"] = report.config.field.spec
    return [
        {**head, **{name: getattr(r, name) for name in _RECEIVER_COLUMNS}}
        for r in report.receivers
    ]
