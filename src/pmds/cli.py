"""Command-line interface.

Subcommands: gen-matrix, verify-mds, sparsity, encode, decode, simulate,
selftest.  Matrices travel between subcommands in the text format of
``matrices`` (pipe-friendly via ``--in -``); verdicts and reports are JSON
on stdout; diagnostics go to stderr only.  Exit codes: 0 success, 1 domain
failure (e.g. a false MDS verdict), 2 usage error.

``verify-mds`` and ``selftest`` check every k-column subset with one
single-threaded scan (``kernels.mds_scan``: one quotient per column prefix,
one determinant grid for the last three columns); the verdict names the
lexicographically first dependent subset and counts the subsets up to it.
PMDS_SUBSET_CAP overrides the default MDS enumeration cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import codec, codes, matrices, ncsim, pascal
from .codec import CodecConfig, DecodeError
from .fields import parse_field_spec
from .matrices import MatrixGF


def _read_matrix(path: str) -> MatrixGF:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return matrices.parse_matrix_text(text)


def _subset_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("PMDS_SUBSET_CAP")
    return int(env) if env else codes.DEFAULT_SUBSET_CAP


def _cmd_gen_matrix(args) -> int:
    field = parse_field_spec(args.field)
    if args.rs is not None:
        m = codes.rs_generator(field, args.k, args.rs)
    else:
        m = pascal.truncated_pascal(field, args.k)
    if args.supplemented:
        m = codes.supplement(m)
    sys.stdout.write(matrices.format_matrix_text(m))
    return 0


def _cmd_verify_mds(args) -> int:
    m = _read_matrix(args.infile)
    verdict = codes.is_mds(m, cap=_subset_cap(args))
    print(
        json.dumps(
            {
                "is_mds": verdict.is_mds,
                "witness": verdict.witness,
                "subsets_checked": verdict.subsets_checked,
            }
        )
    )
    return 0 if verdict.is_mds else 1


def _cmd_sparsity(args) -> int:
    m = _read_matrix(args.infile)
    report = pascal.sparsity_report(m)
    print(
        json.dumps(
            {
                "zeros": report.zeros,
                "max_possible": report.max_possible,
                "ratio": str(report.ratio) if report.ratio is not None else None,
            }
        )
    )
    return 0


def _cmd_encode(args) -> int:
    field = parse_field_spec(args.field)
    config = CodecConfig(field=field, k=args.k, kind=args.kind, n=args.n)
    data = Path(args.infile).read_bytes()
    words, byte_length = codec.bytes_to_words(config, data)
    shares = codec.encode(config, words)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for share in shares:
        with open(out_dir / f"share_{share.u}.bin", "wb") as f:
            codec.write_share(f, config, share, byte_length)
    print(json.dumps({"shares": len(shares), "out_dir": str(out_dir)}))
    return 0


def _cmd_decode(args) -> int:
    frames = []
    for path in args.shares:
        with open(path, "rb") as f:
            frames.append(codec.read_share(f))
    config, _, byte_length = frames[0]
    for (other, _, length), path in zip(frames, args.shares):
        if (other, length) != (config, byte_length):
            raise DecodeError(f"share {path} disagrees with the first share's header")
    words = codec.decode(config, [share for _, share, _ in frames])
    data = codec.words_to_bytes(config, words, byte_length)
    Path(args.out).write_bytes(data)
    print(json.dumps({"bytes": len(data), "out": args.out}))
    return 0


def _cmd_simulate(args) -> int:
    field = parse_field_spec(args.field)
    max_tx = args.max_tx if args.max_tx is not None else field.q + 1
    config = ncsim.SimConfig(
        field=field,
        k=args.k,
        receivers=args.receivers,
        erasure_prob=args.loss,
        scheme=args.scheme,
        seed=args.seed,
        max_transmissions=max_tx,
        payload=args.payload,
    )
    report = ncsim.run_sim(config)
    print(report.to_json())
    if args.csv:
        path = Path(args.csv)
        fresh = not path.exists() or path.stat().st_size == 0
        with open(path, "a", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=ncsim.CSV_FIELDS)
            if fresh:
                writer.writeheader()
            writer.writerows(ncsim.report_csv_rows(report))
    return 0


SELFTEST_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _cmd_selftest(args) -> int:
    from .fields import field_from_order

    failures = 0
    cap = _subset_cap(args)
    for q in SELFTEST_ORDERS:
        field = field_from_order(q)
        for k in range(1, min(q, 6) + 1):
            h_matrix = pascal.supplemented_pascal(field, k)
            p_matrix = pascal.truncated_pascal(field, k)
            vh = codes.is_mds(h_matrix, cap=cap)
            vp = codes.is_mds(p_matrix, cap=cap)
            zeros_ok = (
                matrices.count_zeros(p_matrix) == k * (k - 1) // 2
                and matrices.count_zeros(h_matrix) == k * (k - 1) // 2 + (k - 1)
            )
            ok = vh.is_mds and vp.is_mds and zeros_ok
            failures += not ok
            print(
                f"{'PASS' if ok else 'FAIL'} q={q} k={k} "
                f"H-subsets={vh.subsets_checked} P-subsets={vp.subsets_checked} "
                f"zeros={'ok' if zeros_ok else 'bad'}"
            )
    print(f"{'ALL PASS' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmds",
        description="Sparse MDS generators from finite-field Pascal matrices: "
        "build, verify, code, and simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="emit a generator matrix in text format")
    p.add_argument("--field", required=True, help="field spec: prime or p^h (e.g. 5, 2^4)")
    p.add_argument("--k", type=int, required=True, help="row count")
    p.add_argument("--supplemented", action="store_true", help="append the unit column")
    p.add_argument("--rs", type=int, metavar="N", help="Reed-Solomon generator with N columns")
    p.set_defaults(func=_cmd_gen_matrix)

    p = sub.add_parser("verify-mds", help="exhaustively verify the any-k-columns property")
    p.add_argument("--in", dest="infile", required=True, help="matrix file, or - for stdin")
    p.add_argument("--cap", type=int, default=None, help="subset enumeration cap")
    p.set_defaults(func=_cmd_verify_mds)

    p = sub.add_parser("sparsity", help="zero count vs the k(k-1) ceiling")
    p.add_argument("--in", dest="infile", required=True, help="matrix file, or - for stdin")
    p.set_defaults(func=_cmd_sparsity)

    p = sub.add_parser("encode", help="split a file into share files")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True, help="message symbols per word")
    p.add_argument("--kind", default="supplemented_pascal", choices=pascal.KINDS)
    p.add_argument("--n", type=int, default=None, help="coded coordinates (default: full width)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="rebuild a file from any K share files")
    p.add_argument("--out", required=True)
    p.add_argument("shares", nargs="+", help="share files (at least K of them)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="broadcast simulation with per-receiver erasures")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True, help="packets per block")
    p.add_argument("--receivers", type=int, required=True)
    p.add_argument("--loss", type=float, required=True, help="erasure probability in [0, 1)")
    p.add_argument("--scheme", required=True, choices=ncsim.SCHEMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-tx", type=int, default=None, help="transmission cap (default q+1)")
    p.add_argument("--csv", default=None, help="append one row per receiver to this CSV")
    p.add_argument("--payload", action="store_true", help="also encode/decode packet payloads")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("selftest", help="verify the construction across the standard grid")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except codes.SubsetCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a backstop: sizes the commands do not check up front
        print(f"error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())
