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

Determinism: all randomness flows from the xorshift64* streams of ``rng``
(stream 0 = sender coefficients, stream 1+r = receiver r erasures, stream
receivers+1 = payload symbols).  A transmission is erased for a receiver
when the stream's next 32-bit draw is < floor(loss * 2^32).  Reports with
equal configs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import kernels
from .fields import GF
from .matrices import MatrixGF, solve_many
from .pascal import supplemented_pascal
from .rng import Xorshift64Star

SCHEMES = ("pascal", "random")


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
    payload_len: int = 4  # symbols per packet when payload simulation is on

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
        if self.payload and self.payload_len < 1:
            raise ValueError("payload_len must be >= 1")


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
    """Incremental rank tracker: received columns kept in reduced row form."""

    def __init__(self, field: GF, k: int):
        self.field = field
        self.k = k
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []

    def insert(self, column: np.ndarray) -> bool:
        """Reduce the column against the basis; True if it raised the rank."""
        p, h, q, logt, expt = self.field.tables()
        v = column.copy()
        for pos, row in zip(self.pivots, self.rows):
            c = int(v[pos])
            if c:
                v = kernels.v_sub(v, kernels.v_mul(row, c, q, logt, expt), p, h)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pos = int(nz[0])
        v = kernels.v_mul(v, self.field.inv(int(v[pos])), q, logt, expt)
        self.pivots.append(pos)
        self.rows.append(v)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def run_sim(config: SimConfig) -> SimReport:
    """Run one broadcast block; fully deterministic given the config."""
    field, k = config.field, config.k
    q = field.q
    columns = supplemented_pascal(field, k).data if config.scheme == "pascal" else None
    sender_rng = Xorshift64Star.from_stream(config.seed, 0)
    receiver_rngs = [
        Xorshift64Star.from_stream(config.seed, 1 + r) for r in range(config.receivers)
    ]
    erase_below = int(config.erasure_prob * (1 << 32))

    packets = None
    if config.payload:
        payload_rng = Xorshift64Star.from_stream(config.seed, config.receivers + 1)
        packets = np.array(
            [[payload_rng.uniform(q) for _ in range(config.payload_len)] for _ in range(k)],
            dtype=np.int64,
        )

    stats = [ReceiverStats(receiver_id=r) for r in range(config.receivers)]
    acc = [_Accumulator(field, k) for _ in range(config.receivers)]
    # Rank-raising receptions kept for payload decoding: (column, payload row).
    kept: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(config.receivers)]

    sent = 0
    for u in range(config.max_transmissions):
        if all(s.decoded for s in stats):
            break
        col = (
            columns[:, u].copy()
            if columns is not None
            else random_column(sender_rng, field, k)
        )
        coded = None
        if packets is not None:
            coded = kernels.matmul(col[None, :], packets, *field.tables())[0]
        sent = u + 1
        for r, st in enumerate(stats):
            if st.decoded:
                continue
            st.transmissions_observed = sent
            if receiver_rngs[r].next_u32() < erase_below:
                continue
            st.received_count += 1
            if acc[r].insert(col):
                if packets is not None:
                    kept[r].append((col, coded))
            else:
                st.dependent_receptions += 1
            if acc[r].rank == k:
                st.decoded = True
                st.receptions_at_decode = st.received_count
                if packets is not None:
                    cols_mat = np.stack([c for c, _ in kept[r]])  # (K, K): row i = col_i
                    rhs = np.stack([y for _, y in kept[r]])  # (K, L)
                    recovered = solve_many(MatrixGF(field, cols_mat), rhs)
                    st.payload_ok = bool(np.array_equal(recovered, packets))

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
