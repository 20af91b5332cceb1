"""End-to-end command line checks via subprocess."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

QS_TABLE = """
mode: qshuffle
alphabet: x1:1, x2:2, x3:3
x1 * x1 = x2
x1 * x2 = x3
x2 * x1 = x3
x2 * x2 = x3
x1 * x3 = x3
x3 * x1 = x3
x2 * x3 = x3
x3 * x2 = x3
x3 * x3 = x3
"""

FLALG_TABLE = """
mode: explicit
alphabet: a:1, b:2
bound: 6
a , a -> 2*b
"""


def run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "gebra", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_ok(*argv):
    code, out, err = run(*argv)
    assert code == 0, err
    assert err == ""
    return out


def test_pinned_lambda_output():
    assert run_ok("topo", "lambda", "2; 1<2") == "-1/2\n"


def test_pinned_shuffle_output():
    assert run_ok("shuffle", "a", "a") == "2*a.a\n"


def test_pinned_upsilon_output():
    assert run_ok("topo", "upsilon", "3; 1<3, 2<3") == "2X^2+X\n"


def test_json_schema():
    out = run_ok("topo", "lambda", "2; 1<2", "--json")
    assert json.loads(out) == {"terms": [{"coeff": "-1/2", "basis": "1"}]}
    out = run_ok("shuffle", "a", "b", "--json")
    data = json.loads(out)
    assert set(data) == {"terms"}
    for term in data["terms"]:
        assert set(term) == {"coeff", "basis"}
        assert term["coeff"] == "1"
    assert [t["basis"] for t in data["terms"]] == ["a.b", "b.a"]
    out = run_ok("topo", "upsilon", "3; 1<3, 2<3", "--json")
    assert json.loads(out) == {
        "terms": [{"coeff": "2", "basis": "X^2"}, {"coeff": "1", "basis": "X"}]
    }


def test_output_is_deterministic(tmp_path):
    tbl = tmp_path / "qs.tbl"
    tbl.write_text(QS_TABLE)
    for argv in (
        ("topo", "eulerian", "4; 1<2, 1<3, 1<4"),
        ("desc", "solomon", "4"),
        ("qshuffle", "--table", str(tbl), "x1.x2", "x1"),
        ("topo", "delta2", "3; 3<1, 3<2", "--json"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second
        assert first[0] == 0


def test_qshuffle_needs_a_table():
    code, out, err = run("qshuffle", "x1", "x1")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_table_file_quasi_shuffle(tmp_path):
    tbl = tmp_path / "qs.tbl"
    tbl.write_text(QS_TABLE)
    out = run_ok("qshuffle", "--table", str(tbl), "x1", "x1")
    assert out == "x2 + 2*x1.x1\n"
    out = run_ok("eulerian", "--table", str(tbl), "x1.x2")
    assert out == "-1/2*x3 + 1/2*x1.x2 + -1/2*x2.x1\n"
    out = run_ok("varpi", "--table", str(tbl), "x1.x2")
    assert out == "-1/2*x3\n"
    assert run_ok("hoffman", "log", "--table", str(tbl), "x1.x1") == run_ok(
        "varpi", "--table", str(tbl), "x1.x1"
    )


def test_table_file_explicit(tmp_path):
    tbl = tmp_path / "fl.tbl"
    tbl.write_text(FLALG_TABLE)
    out = run_ok("binf", "prod", "--table", str(tbl), "a", "a")
    assert out == "2*b + 2*a.a\n"
    out = run_ok("binf", "check", "--table", str(tbl), "--budget", "4")
    assert out == "unit: pass\nassoc: pass\ncomm: pass\ntrivial: fail\n"


def test_binf_check_shuffle_report():
    out = run_ok("binf", "check", "--alphabet", "a,b", "--budget", "3")
    assert out == "unit: pass\nassoc: pass\ncomm: pass\ntrivial: pass\n"


def test_omega_zeta_roundtrip(tmp_path):
    tbl = tmp_path / "qs.tbl"
    tbl.write_text(QS_TABLE)
    image = run_ok("omega", "--table", str(tbl), "x1.x2").strip()
    back = run_ok("zeta", "--table", str(tbl), image)
    assert back == "x1.x2\n"


def test_desc_outputs():
    assert run_ok("desc", "dynkin", "3") == "1 2 3 + -1*2 1 3 + -1*3 1 2 + 3 2 1\n"
    assert run_ok("desc", "solomon", "2") == "1/2*1 2 + -1/2*2 1\n"
    assert run_ok("desc", "conv", "1 2", "1") == "1 2 3 + 1 3 2 + 2 3 1\n"


def test_desc_check_report():
    out = run_ok("desc", "check", "3")
    lines = out.splitlines()
    assert lines[0] == "solomon_idempotent: pass"
    assert all(line.endswith(": pass") for line in lines)
    assert any(line.startswith("dynkin_lie_valued") for line in lines)


def test_desc_check_7_passes_within_10s():
    t0 = time.monotonic()
    out = run_ok("desc", "check", "7")
    assert time.monotonic() - t0 < 10.0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith(": pass") for line in lines)

# sha256 of the stdout of each descent command, pinned from the n! route so
# that any drift in term order or in a rational shows up
DESC_GOLDEN = [
    ("desc dynkin 1", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("desc dynkin 1 --json", "5530ef319fab2598b160e0cb2974203d433302e0d85ad9867eb4f5c34bada706"),
    ("desc dynkin 2", "808b332b8d5645902c9c68acad1dcf2d011df6fcae44baa522cc74d334a18f3b"),
    ("desc dynkin 2 --json", "319e7dc8c140a315e462d4595fc654bf52fe0492fa696489c38e3772bd43cf9a"),
    ("desc dynkin 3", "72371d83b34c8d99c45cca1b9ea17aa31d1c1caab8938c2f93296a93ab7b1ba9"),
    ("desc dynkin 3 --json", "296b35265be73ed8b814f6699191c2b130965d0b88fef19db8d24587474d9211"),
    ("desc dynkin 4", "40c934641c29f4a217d5b72c558ec228fee5071696f73d474650ee59d915198d"),
    ("desc dynkin 4 --json", "053aeda9a27486bdb7704d205802b91bbd1bb185cfe9643d693e91052dc4f81a"),
    ("desc dynkin 5", "3772cd5d2702a6ba84fc8ed27b2843a332030e7a1838724ddad3091f0be5e789"),
    ("desc dynkin 5 --json", "ced5f9780cfd78966ede67c4373b2438fad32eed41f353c6e6048ed6960f94d0"),
    ("desc dynkin 6", "b69d71ba593d91bbe9f7311de08cb9c9a8420b8ee82a28d9a76378160bac2d63"),
    ("desc dynkin 6 --json", "74ae0943b9a6ff9ad25438821addbb99a10be730e08b69bc85131d406a46b84e"),
    ("desc dynkin 7", "245b271c9df92626007377ac64968aa03cc43e6a86e72ab1783f14fe7d4422d7"),
    ("desc dynkin 7 --json", "ae7ac2ddbf2aa7eb8150b03e5943935907d016346068fb89c8e34f9a06061698"),
    ("desc solomon 1", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("desc solomon 1 --json", "5530ef319fab2598b160e0cb2974203d433302e0d85ad9867eb4f5c34bada706"),
    ("desc solomon 2", "ea05f2c0bea824af13cf25dda051cd4de68a018aa091e81124fc51d716f4dd27"),
    ("desc solomon 2 --json", "0116c8d3c87c2e7436d441d48a193bfd8d01196e5ecbf998aa3f5ad22c40ef48"),
    ("desc solomon 3", "3e9cf410d8f97263b364ac3b55d2645bf2f694fcc83eb5a62d82108a0a4cccb4"),
    ("desc solomon 3 --json", "a5808da2b06386e38c04026cca8e0551ab4afbb2daa3ea9e47156e7a88934c5c"),
    ("desc solomon 4", "7128d671b649ddb1e18e0729fc3b786e97051620ee7aabeff7ce50305f34533b"),
    ("desc solomon 4 --json", "b0f6e4a7a4db5f865ea01b4045cb0aa4c5f377954fa99c4bef530468230501cb"),
    ("desc solomon 5", "d0a0835f49e18f99a71db4e7079b98e5906cf14ddb5db9910a719386faef42ac"),
    ("desc solomon 5 --json", "c9e667ea13aa814da414c769b8bd7b243c5b56726cd761083561510ba0e85d12"),
    ("desc solomon 6", "fbbf427f94d1eaefbf1dd5d1efb4440c9c7c937fc3cd1e2a13825a35c3d1222f"),
    ("desc solomon 6 --json", "29dda805133f48cd304c610b1b3c2bbb1129363ab4c6ddca7cdeece59581f21a"),
    ("desc solomon 7", "571c90a1d117e7578ea633c59fa202495e251b90ee97a79889155400fc4f568d"),
    ("desc solomon 7 --json", "15c499d5a2c73748bb377a8d6495273b23c572bb5389984f07a12ad7d350c72e"),
    ("desc check 1", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 1 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
    ("desc check 2", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 2 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
    ("desc check 3", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 3 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
    ("desc check 4", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 4 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
    ("desc check 5", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 5 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
]


@pytest.mark.parametrize("argv,digest", DESC_GOLDEN, ids=[a for a, _ in DESC_GOLDEN])
def test_desc_output_is_byte_identical(argv, digest):
    proc = subprocess.run([sys.executable, "-m", "gebra", *argv.split()], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_topo_outputs():
    assert run_ok("topo", "ladder", "3") == "3; 2<1, 3<1, 3<2 (l3)\n"
    assert run_ok("topo", "corolla", "4") == "4; 4<1, 4<2, 4<3 (c4)\n"
    assert (
        run_ok("topo", "delta", "2; 1<2")
        == "1 (x) l2 + disc1 (x) disc1 + l2 (x) 1\n"
    )
    assert (
        run_ok("topo", "eulerian", "4; 1<2, 1<3, 1<4")
        == "1/2*[4; 4<3] + -3/2*[4; 4<2, 4<3] + c4\n"
    )
    assert run_ok("topo", "pi", "2") == "disc2 + -2*l2\n"


def test_size_bound_exit_code():
    for argv in (
        ("topo", "lambda", "9; 1<2"),
        ("desc", "dynkin", "8"),
        ("topo", "eulerian", "7; 1<2"),
    ):
        code, out, err = run(*argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


def test_malformed_input_exit_code():
    for argv in (
        ("topo", "lambda", "2; 1*2"),
        ("shuffle", "a..b", "a"),
        ("desc", "conv", "1 3", "1"),
        ("topo", "upsilon", "0"),
        ("hoffman", "log", "--alphabet", "a,b", "a.b"),
    ):
        code, out, err = run(*argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")


def test_unknown_subcommand_exits_2():
    code, out, err = run("frobnicate")
    assert code == 2
    assert out == ""
    assert err != ""


def test_no_arguments_exits_2():
    code, out, err = run()
    assert code == 2
