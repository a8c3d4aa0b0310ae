import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from pmds import codec
from pmds.cli import main
from pmds.fields import make_field


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_matrix_h52(capsys, monkeypatch):
    code, out, err = run_cli(
        ["gen-matrix", "--field", "5", "--k", "2", "--supplemented"], capsys=capsys
    )
    assert code == 0
    assert out == "5 2 6\n1 1 1 1 1 0\n0 1 2 3 4 1\n"


def test_gen_matrix_rs(capsys, monkeypatch):
    code, out, _ = run_cli(["gen-matrix", "--field", "5", "--k", "2", "--rs", "4"], capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["5 2 4", "1 1 1 1", "1 2 3 4"]


def test_verify_mds_pipe(capsys, monkeypatch):
    code, matrix_text, _ = run_cli(
        ["gen-matrix", "--field", "2^3", "--k", "3", "--supplemented"], capsys=capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify-mds", "--in", "-"], stdin_text=matrix_text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"is_mds": True, "witness": None, "subsets_checked": 84}


def test_verify_mds_failure_exit_code(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 2 3\n1 1 2\n2 2 3\n")
    code, out, _ = run_cli(["verify-mds", "--in", str(bad)], capsys=capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict["is_mds"] is False
    assert verdict["witness"] == [0, 1]


def test_verify_mds_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("PMDS_SUBSET_CAP", "5")
    code, matrix_text, _ = run_cli(
        ["gen-matrix", "--field", "5", "--k", "2", "--supplemented"], capsys=capsys
    )
    code, out, err = run_cli(
        ["verify-mds", "--in", "-"], stdin_text=matrix_text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2
    assert "cap 5" in err


def test_sparsity(capsys, monkeypatch):
    code, matrix_text, _ = run_cli(
        ["gen-matrix", "--field", "5", "--k", "2", "--supplemented"], capsys=capsys
    )
    code, out, _ = run_cli(
        ["sparsity", "--in", "-"], stdin_text=matrix_text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == {"zeros": 2, "max_possible": 2, "ratio": "1"}


def test_encode_decode_files(tmp_path, capsys, monkeypatch):
    src = tmp_path / "message.bin"
    src.write_bytes(bytes(range(200)) * 3)
    out_dir = tmp_path / "shares"
    code, out, _ = run_cli(
        [
            "encode",
            "--field", "2^8",
            "--k", "4",
            "--kind", "supplemented_pascal",
            "--in", str(src),
            "--out-dir", str(out_dir),
        ],
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["shares"] == 257
    assert (out_dir / "share_0.bin").exists()
    assert (out_dir / "share_256.bin").exists()

    rebuilt = tmp_path / "rebuilt.bin"
    picked = [str(out_dir / f"share_{u}.bin") for u in (256, 17, 99, 3)]
    code, out, _ = run_cli(["decode", "--out", str(rebuilt)] + picked, capsys=capsys)
    assert code == 0
    assert rebuilt.read_bytes() == src.read_bytes()


def test_encode_decode_empty_file(tmp_path, capsys, monkeypatch):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    out_dir = tmp_path / "shares"
    code, _, _ = run_cli(
        ["encode", "--field", "5", "--k", "2", "--in", str(src), "--out-dir", str(out_dir)],
        capsys=capsys,
    )
    assert code == 0
    rebuilt = tmp_path / "rebuilt.bin"
    code, _, _ = run_cli(
        ["decode", "--out", str(rebuilt), str(out_dir / "share_3.bin"),
         str(out_dir / "share_5.bin")],
        capsys=capsys,
    )
    assert code == 0
    assert rebuilt.read_bytes() == b""


def test_decode_too_few_shares_domain_failure(tmp_path, capsys, monkeypatch):
    src = tmp_path / "m.bin"
    src.write_bytes(b"hello")
    out_dir = tmp_path / "s"
    run_cli(
        ["encode", "--field", "5", "--k", "2", "--in", str(src), "--out-dir", str(out_dir)],
        capsys=capsys,
    )
    code, _, err = run_cli(
        ["decode", "--out", str(tmp_path / "x.bin"), str(out_dir / "share_0.bin")],
        capsys=capsys,
    )
    assert code == 1
    assert "distinct coordinates" in err


def test_decode_out_of_range_symbol_domain_failure(tmp_path, capsys, monkeypatch):
    src = tmp_path / "m.bin"
    src.write_bytes(bytes(range(40)))
    out_dir = tmp_path / "s"
    run_cli(
        ["encode", "--field", "5", "--k", "3", "--in", str(src), "--out-dir", str(out_dir)],
        capsys=capsys,
    )
    frame = out_dir / "share_1.bin"
    raw = bytearray(frame.read_bytes())
    raw[-1] = 7  # a GF(5) symbol is one byte in [0, 5)
    frame.write_bytes(bytes(raw))
    shares = [str(out_dir / f"share_{u}.bin") for u in range(3)]
    code, _, err = run_cli(
        ["decode", "--out", str(tmp_path / "x.bin"), *shares], capsys=capsys
    )
    assert code == 1
    assert "out of range" in err


def _gf5_shares(tmp_path, capsys):
    """A 1000-byte file encoded at GF(5), K=3; returns (source, share dir)."""
    src = tmp_path / "m.bin"
    src.write_bytes(bytes(range(256)) * 3 + bytes(range(232)))
    out_dir = tmp_path / "s"
    run_cli(
        ["encode", "--field", "5", "--k", "3", "--in", str(src), "--out-dir", str(out_dir)],
        capsys=capsys,
    )
    return src, out_dir


def test_decode_corrupt_surplus_share_domain_failure(tmp_path, capsys):
    src, out_dir = _gf5_shares(tmp_path, capsys)
    frame = out_dir / "share_0.bin"
    raw = bytearray(frame.read_bytes())
    raw[-1] = (raw[-1] + 1) % 5  # an in-range GF(5) symbol, changed
    frame.write_bytes(bytes(raw))
    out = tmp_path / "x.bin"
    shares = [str(out_dir / f"share_{u}.bin") for u in range(4)]
    code, _, err = run_cli(["decode", "--out", str(out), *shares], capsys=capsys)
    assert code == 1
    assert "corrupt" in err
    assert not out.exists()


def test_decode_disagreeing_copies_domain_failure(tmp_path, capsys):
    src, out_dir = _gf5_shares(tmp_path, capsys)
    raw = bytearray((out_dir / "share_0.bin").read_bytes())
    raw[-1] = (raw[-1] + 1) % 5  # an in-range GF(5) symbol, changed
    copy = tmp_path / "copy_of_share_0.bin"
    copy.write_bytes(bytes(raw))
    out = tmp_path / "x.bin"
    shares = [str(copy)] + [str(out_dir / f"share_{u}.bin") for u in range(3)]
    code, _, err = run_cli(["decode", "--out", str(out), *shares], capsys=capsys)
    assert code == 1
    assert "corrupt" in err
    assert not out.exists()
    # An identical second copy is harmless.
    copy.write_bytes((out_dir / "share_0.bin").read_bytes())
    code, _, _ = run_cli(["decode", "--out", str(out), *shares], capsys=capsys)
    assert code == 0
    assert out.read_bytes() == src.read_bytes()


def test_decode_untouched_surplus_share(tmp_path, capsys):
    src, out_dir = _gf5_shares(tmp_path, capsys)
    out = tmp_path / "x.bin"
    shares = [str(out_dir / f"share_{u}.bin") for u in (5, 0, 2, 4)]
    code, _, _ = run_cli(["decode", "--out", str(out), *shares], capsys=capsys)
    assert code == 0
    assert out.read_bytes() == src.read_bytes()


def test_decode_invalid_header_field_domain_failure(tmp_path, capsys):
    _, out_dir = _gf5_shares(tmp_path, capsys)
    frames = [out_dir / f"share_{u}.bin" for u in range(3)]
    good = [frame.read_bytes() for frame in frames]
    # (header bytes, new value, frames changed, message): p = 4 in one frame,
    # then K = 0 and K = 6, outside [1, q], in all three.
    cases = [
        (slice(5, 7), (4).to_bytes(2, "big"), [1], "not prime"),
        (slice(8, 12), (0).to_bytes(4, "big"), [0, 1, 2], "K must be in [1, 5]"),
        (slice(8, 12), (6).to_bytes(4, "big"), [0, 1, 2], "K must be in [1, 5]"),
    ]
    for where, value, changed, message in cases:
        for u, frame in enumerate(frames):
            raw = bytearray(good[u])
            if u in changed:
                raw[where] = value
            frame.write_bytes(bytes(raw))
        shares = [str(frame) for frame in frames]
        code, _, err = run_cli(
            ["decode", "--out", str(tmp_path / "x.bin"), *shares], capsys=capsys
        )
        assert code == 1, message
        assert message in err


def test_decode_of_header_only_frames_stays_bounded(tmp_path, pmds_peak_kib):
    """256 header-only GF(2^16) frames (25 bytes each, K = 256, u = 0..255,
    payload length 0) decode from their 256 generator columns, not from the
    256 x 65,537 full-width generator: the peak RSS stays under 64 MB."""
    config = codec.CodecConfig(make_field(2, 16), 256)
    paths = []
    for u in range(256):
        paths.append(str(tmp_path / f"share_{u}.bin"))
        with open(paths[-1], "wb") as f:
            codec.write_share(f, config, codec.Share(u, np.zeros(0, np.int64)), 0)
    assert (tmp_path / "share_0.bin").stat().st_size == 25
    out = tmp_path / "out.bin"
    code, peak_kib, err = pmds_peak_kib("decode", "--out", str(out), *paths)
    assert code == 0, err
    assert out.read_bytes() == b""
    assert peak_kib < 64 * 1024


def test_decode_from_all_shares_stays_narrow(tmp_path, pmds_peak_kib):
    """All 257 shares of a 1 MiB GF(2^8) file at K = 8 (33 MB on disk)
    decode under 160 MB peak RSS: read_share keeps the symbols as uint8,
    not an int64 copy 8x their size."""
    config = codec.CodecConfig(make_field(2, 8), 8)
    data = np.random.default_rng(9).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    words, length = codec.bytes_to_words(config, data)
    paths = []
    for share in codec.encode(config, words):
        paths.append(str(tmp_path / f"share_{share.u}.bin"))
        with open(paths[-1], "wb") as f:
            codec.write_share(f, config, share, length)
    out = tmp_path / "out.bin"
    code, peak_kib, err = pmds_peak_kib("decode", "--out", str(out), *paths)
    assert code == 0, err
    assert out.read_bytes() == data
    assert peak_kib < 160 * 1024, peak_kib


def test_simulate_json_and_csv(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "sweep.csv"
    argv = [
        "simulate",
        "--field", "17",
        "--k", "4",
        "--receivers", "3",
        "--loss", "0.2",
        "--scheme", "pascal",
        "--seed", "7",
        "--csv", str(csv_path),
    ]
    code, out1, _ = run_cli(argv, capsys=capsys)
    assert code == 0
    report = json.loads(out1)
    assert report["config"]["max_transmissions"] == 18  # default q+1
    assert len(report["receivers"]) == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "scheme,seed,field,k,receivers,erasure_prob,max_transmissions,receiver_id,"
        "transmissions_observed,received_count,decoded,receptions_at_decode,"
        "dependent_receptions"
    )
    assert lines[1] == "pascal,7,17,4,3,0.2,18,0,4,4,True,4,0"
    assert len(lines) == 4
    # appending a second run adds rows, not a second header
    code, out2, _ = run_cli(argv, capsys=capsys)
    assert out1 == out2
    assert len(csv_path.read_text().splitlines()) == 7


def test_simulate_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(
        [
            "simulate",
            "--field", "17",
            "--k", "4",
            "--receivers", "2",
            "--loss", "1.5",
            "--scheme", "pascal",
            "--seed", "1",
        ],
        capsys=capsys,
    )
    assert code == 2
    assert "erasure probability" in err


@pytest.mark.parametrize(
    "size",
    [
        ["--field", "2^8", "--k", "4", "--receivers", "200000000"],  # one stream per receiver
        ["--field", "2", "--k", "300000000", "--receivers", "1"],  # one draw per entry
    ],
    ids=["receivers", "k"],
)
def test_simulate_beyond_the_basis_budget_exits_2_at_once(size, capsys):
    """Refused before any draw: in well under a second, with one error line."""
    argv = ["simulate", *size, "--loss", "0", "--scheme", "random", "--seed", "1", "--max-tx", "1"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys=capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: simulation needs") and "budget" in err
    assert len(err.splitlines()) == 1


def test_out_of_memory_is_a_one_line_usage_error(pmds_peak_kib):
    """A 4096 x 65,536 generator (2 GiB of int64) under a 1.5 GB address-space
    limit on the child: exit 2 and one error line, not a traceback."""
    code, _, err = pmds_peak_kib(
        "gen-matrix", "--field", "2^16", "--k", "4096", address_space=1_500_000 * 1024
    )
    assert code == 2, err
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


def test_gen_matrix_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(["gen-matrix", "--field", "6", "--k", "2"], capsys=capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(["gen-matrix", "--field", "5", "--k", "9"], capsys=capsys)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_selftest_small_cap(capsys, monkeypatch):
    code, out, _ = run_cli(["selftest"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "ALL PASS"
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert len(lines) - 1 == sum(min(q, 6) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))


# Exact stdout of `pmds selftest`: the subset counts are the scan's
# observable output, so any change to the enumeration shows here.
SELFTEST_GOLDEN = """\
PASS q=2 k=1 H-subsets=3 P-subsets=2 zeros=ok
PASS q=2 k=2 H-subsets=3 P-subsets=1 zeros=ok
PASS q=3 k=1 H-subsets=4 P-subsets=3 zeros=ok
PASS q=3 k=2 H-subsets=6 P-subsets=3 zeros=ok
PASS q=3 k=3 H-subsets=4 P-subsets=1 zeros=ok
PASS q=4 k=1 H-subsets=5 P-subsets=4 zeros=ok
PASS q=4 k=2 H-subsets=10 P-subsets=6 zeros=ok
PASS q=4 k=3 H-subsets=10 P-subsets=4 zeros=ok
PASS q=4 k=4 H-subsets=5 P-subsets=1 zeros=ok
PASS q=5 k=1 H-subsets=6 P-subsets=5 zeros=ok
PASS q=5 k=2 H-subsets=15 P-subsets=10 zeros=ok
PASS q=5 k=3 H-subsets=20 P-subsets=10 zeros=ok
PASS q=5 k=4 H-subsets=15 P-subsets=5 zeros=ok
PASS q=5 k=5 H-subsets=6 P-subsets=1 zeros=ok
PASS q=7 k=1 H-subsets=8 P-subsets=7 zeros=ok
PASS q=7 k=2 H-subsets=28 P-subsets=21 zeros=ok
PASS q=7 k=3 H-subsets=56 P-subsets=35 zeros=ok
PASS q=7 k=4 H-subsets=70 P-subsets=35 zeros=ok
PASS q=7 k=5 H-subsets=56 P-subsets=21 zeros=ok
PASS q=7 k=6 H-subsets=28 P-subsets=7 zeros=ok
PASS q=8 k=1 H-subsets=9 P-subsets=8 zeros=ok
PASS q=8 k=2 H-subsets=36 P-subsets=28 zeros=ok
PASS q=8 k=3 H-subsets=84 P-subsets=56 zeros=ok
PASS q=8 k=4 H-subsets=126 P-subsets=70 zeros=ok
PASS q=8 k=5 H-subsets=126 P-subsets=56 zeros=ok
PASS q=8 k=6 H-subsets=84 P-subsets=28 zeros=ok
PASS q=9 k=1 H-subsets=10 P-subsets=9 zeros=ok
PASS q=9 k=2 H-subsets=45 P-subsets=36 zeros=ok
PASS q=9 k=3 H-subsets=120 P-subsets=84 zeros=ok
PASS q=9 k=4 H-subsets=210 P-subsets=126 zeros=ok
PASS q=9 k=5 H-subsets=252 P-subsets=126 zeros=ok
PASS q=9 k=6 H-subsets=210 P-subsets=84 zeros=ok
PASS q=11 k=1 H-subsets=12 P-subsets=11 zeros=ok
PASS q=11 k=2 H-subsets=66 P-subsets=55 zeros=ok
PASS q=11 k=3 H-subsets=220 P-subsets=165 zeros=ok
PASS q=11 k=4 H-subsets=495 P-subsets=330 zeros=ok
PASS q=11 k=5 H-subsets=792 P-subsets=462 zeros=ok
PASS q=11 k=6 H-subsets=924 P-subsets=462 zeros=ok
PASS q=13 k=1 H-subsets=14 P-subsets=13 zeros=ok
PASS q=13 k=2 H-subsets=91 P-subsets=78 zeros=ok
PASS q=13 k=3 H-subsets=364 P-subsets=286 zeros=ok
PASS q=13 k=4 H-subsets=1001 P-subsets=715 zeros=ok
PASS q=13 k=5 H-subsets=2002 P-subsets=1287 zeros=ok
PASS q=13 k=6 H-subsets=3003 P-subsets=1716 zeros=ok
PASS q=16 k=1 H-subsets=17 P-subsets=16 zeros=ok
PASS q=16 k=2 H-subsets=136 P-subsets=120 zeros=ok
PASS q=16 k=3 H-subsets=680 P-subsets=560 zeros=ok
PASS q=16 k=4 H-subsets=2380 P-subsets=1820 zeros=ok
PASS q=16 k=5 H-subsets=6188 P-subsets=4368 zeros=ok
PASS q=16 k=6 H-subsets=12376 P-subsets=8008 zeros=ok
ALL PASS
"""


def test_selftest_golden_stdout(capsys):
    code, out, _ = run_cli(["selftest"], capsys=capsys)
    assert code == 0
    assert out == SELFTEST_GOLDEN


# Dependent matrices with the exact verdict JSON of `pmds verify-mds`.  The
# first is H over GF(8), k=4, plus the column col1 + col5; the second is H
# over GF(9), k=3, with col2 + 5*col6 inserted at index 8.
VERIFY_GOLDEN = [
    (
        "8 4 10\n"
        "1 1 1 1 1 1 1 1 0 0\n"
        "0 1 2 3 4 5 6 7 0 4\n"
        "0 0 3 3 1 1 2 2 0 1\n"
        "0 0 0 1 2 4 1 6 1 4\n",
        '{"is_mds": false, "witness": [0, 1, 5, 9], "subsets_checked": 22}\n',
    ),
    (
        "9 3 11\n"
        "1 1 1 1 1 1 1 1 3 1 0\n"
        "0 1 2 3 4 5 6 7 3 8 0\n"
        "0 0 1 4 7 2 7 4 7 2 1\n",
        '{"is_mds": false, "witness": [0, 5, 8], "subsets_checked": 33}\n',
    ),
]


@pytest.mark.parametrize("matrix_text,verdict", VERIFY_GOLDEN)
def test_verify_mds_golden_witness(matrix_text, verdict, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify-mds", "--in", "-"], stdin_text=matrix_text, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert out == verdict


def test_shell_pipe_composition():
    """gen-matrix | verify-mds through a real shell pipe."""
    gen = subprocess.run(
        [sys.executable, "-m", "pmds", "gen-matrix", "--field", "3^2", "--k", "3",
         "--supplemented"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    verify = subprocess.run(
        [sys.executable, "-m", "pmds", "verify-mds", "--in", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["is_mds"] is True
