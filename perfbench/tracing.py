"""Layer spans for the traced run, recorded from outside the program.

The tracer replaces public functions of ``pmds`` modules with wrappers that
time each call.  A call opens a span (name, start, end, parent); spans nest
on one stack because every workload runs on a single thread.  A span's self
time is its duration minus the time its child spans cover; the tracer keeps
that online, per span name, so memory stays bounded however many calls a
run makes.  The first ``span_cap`` spans are also kept verbatim and written
out at the end.

Several modules bind names at import (``from .matrices import solve_many``),
so patching the defining module alone would miss those calls.  ``install``
patches each caller's binding as well and lists every site it patched.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from pmds import cli, codec, codes, fields, kernels, matrices, ncsim, pascal, rng

_clock = time.perf_counter

# Span name -> group; a group's inclusive time counts only its outermost spans,
# so nested calls inside one layer (uniform -> next_u32 -> next_u64) count once.
GROUPS = {
    "pascal.supplemented_pascal": "pascal.build",
    "pascal.truncated_pascal": "pascal.build",
    "rng.uniform": "rng.draw",
    "rng.next_u32": "rng.draw",
    "rng.next_u64": "rng.draw",
    "kernels.v_add": "kernels.vector",
    "kernels.v_sub": "kernels.vector",
    "kernels.v_mul": "kernels.vector",
}

# Names whose individual call durations are kept (for percentiles).
KEEP_DURATIONS = ("codec.decode",)


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # inclusive seconds per name
        self.self_time: Counter = Counter()
        self.group_time: Counter = Counter()  # outermost-span seconds per group
        self.counts: Counter = Counter()  # work counters recorded at boundaries
        self.durations: dict[str, list[float]] = {n: [] for n in KEEP_DURATIONS}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self.sites: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._group_depth: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper that records one span per call of fn.

        ``before(args)`` runs outside the span and its value is handed to
        ``after(args, result, state)``, which records counters.
        """
        group = GROUPS.get(name)
        keep = self.durations.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            state = before(args) if before else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            if group:
                self._group_depth[group] += 1
            frame = [span_id, name, _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[2]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if group:
                    self._group_depth[group] -= 1
                    if not self._group_depth[group]:
                        self.group_time[group] += dur
                if keep is not None:
                    keep.append(dur)
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, parent, name, frame[2], end))
                else:
                    self.dropped += 1
            if after:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr with a traced wrapper and record the site."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, before, after))
        self._undo.append((owner, attr, original))
        self.sites.append(f"{_site_name(owner)}.{attr}")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n"
                )


def _site_name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return getattr(owner, "__name__", type(owner).__name__)


class _KernelsView:
    """Stands in for ``pmds.kernels`` inside ``ncsim``: its vector ops are
    traced, everything else is looked up on the real module at call time."""

    __name__ = "pmds.ncsim.kernels"

    def __getattr__(self, attr):
        return getattr(kernels, attr)


# -- counters recorded at layer boundaries ---------------------------------------


def install(tracer: Tracer) -> Tracer:
    """Patch every traced call site of ``pmds``; undo with ``uninstall``."""
    counts = tracer.counts

    def matmul_done(args, out, _):
        a, b = args[0], args[1]
        rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
        counts["kernels.matmul_products"] += rows * inner * cols
        counts["kernels.matmul_zero_products"] += rows * int(np.count_nonzero(b == 0))
        counts["kernels.matmul_bytes"] += (a.size + b.size + out.size) * 8

    def stream_pos(args):
        return args[0].tell()

    def wrote(args, _, pos):
        counts["codec.bytes_written"] += args[0].tell() - pos

    def read(args, _, pos):
        counts["codec.bytes_read"] += args[0].tell() - pos

    def scanned(args, verdict, _):
        counts["codes.subsets_checked"] += verdict.subsets_checked

    def simulated(args, report, _):
        counts["ncsim.transmissions"] += report.transmissions_sent
        for r in report.receivers:
            counts["ncsim.receptions"] += r.received_count
            counts["ncsim.useful_receptions"] += r.received_count - r.dependent_receptions

    def drew(args, _, __):
        counts["rng.draws"] += 1

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(codec, "encode", "codec.encode")
    p(codec, "decode", "codec.decode")
    p(codec, "write_share", "codec.write_share", stream_pos, wrote)
    p(codec, "read_share", "codec.read_share", stream_pos, read)
    p(codec, "bytes_to_words", "codec.bytes_to_words")
    p(codec, "words_to_bytes", "codec.words_to_bytes")
    p(kernels, "matmul", "kernels.matmul", after=matmul_done)
    p(kernels, "solve_in_place", "kernels.solve_in_place")
    p(kernels, "mds_scan", "kernels.mds_scan")
    p(codes, "is_mds", "codes.is_mds", after=scanned)
    p(ncsim, "run_sim", "ncsim.run_sim", after=simulated)
    p(fields.GF, "__init__", "fields.GF")
    for cls_attr in ("next_u64", "next_u32", "uniform"):
        p(rng.Xorshift64Star, cls_attr, f"rng.{cls_attr}",
          after=drew if cls_attr == "next_u64" else None)

    # Bindings made by `from ... import` in the callers.
    for owner in (matrices, codec, ncsim):
        p(owner, "solve_many", "matrices.solve_many")
    for owner in (pascal, codec, codes, ncsim):
        p(owner, "supplemented_pascal", "pascal.supplemented_pascal")
    for owner in (pascal, codec):
        p(owner, "truncated_pascal", "pascal.truncated_pascal")
    for op in ("v_mul", "v_sub"):
        p(pascal, op, f"kernels.{op}")

    # ncsim reaches the vector ops through its `kernels` binding.
    view = _KernelsView()
    for op in ("v_add", "v_sub", "v_mul"):
        p(view, op, f"kernels.{op}")
    tracer._undo.append((ncsim, "kernels", kernels))
    ncsim.kernels = view
    tracer.sites.append("pmds.ncsim.kernels")
    return tracer
