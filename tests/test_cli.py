"""End-to-end command line checks via subprocess."""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gebra.cli import _COMMANDS, build_parser, main
from gebra.descent import DEGREE_BOUND
from test_bounds import BOUNDS

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


def test_table_line_the_mode_does_not_read_exits_2(tmp_path):
    tbl = tmp_path / "sh.tbl"
    tbl.write_text("mode: shuffle\nalphabet: a, b\na , a -> b\n")
    code, out, err = run("binf", "prod", "--table", str(tbl), "a", "a")
    assert (code, out) == (2, "")
    assert err == "error: table line 'a , a -> b' is not read in shuffle mode\n"
    # a table gives each pair once: a second line for it is refused, not read over the first
    for body, line in (("a , b -> a\na , b -> b\n", "a , b -> b"),
                       ("a , b -> a\na, b -> 0\n", "a, b -> 0")):
        tbl.write_text("mode: explicit\nalphabet: a, b\n" + body)
        code, out, err = run("binf", "prod", "--table", str(tbl), "a", "b")
        assert (code, out) == (2, "")
        assert err == f"error: table line {line!r} gives the pair (a, b) a second time\n"


def test_bound_header_outside_explicit_mode_exits_2(tmp_path):
    tbl = tmp_path / "sh.tbl"
    tbl.write_text("mode: shuffle\nalphabet: a, b\nbound: 1\n")
    code, out, err = run("binf", "prod", "--table", str(tbl), "a", "a")
    assert (code, out) == (2, "")
    assert err == "error: table line 'bound: 1' is not read in shuffle mode\n"


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


DESC_CHECK_KEYS = [
    "solomon_idempotent", "solomon_primitive", "solomon_matches_log_oracle",
    "dynkin_primitive", "dynkin_quasi_idempotent", "solomon_lie_valued", "dynkin_lie_valued",
]


@pytest.mark.parametrize("n", range(1, DEGREE_BOUND + 1))
def test_desc_check_reports_every_identity_at_every_degree(n):
    report = json.loads(run_ok("desc", "check", str(n), "--json"))
    assert list(report) == DESC_CHECK_KEYS
    assert all(report.values())


# The characters of the group algebra grammar: permutations, coefficients
# p/q, "*" and "+", plus "-" and "." for the malformed cases.
GROUP_ALG_CHARS = "0123456789 ,*/+-."

DESC_ARGV = st.one_of(
    st.tuples(
        st.just("conv"),
        st.text(GROUP_ALG_CHARS, max_size=24),
        st.text(GROUP_ALG_CHARS, max_size=24),
    ),
    st.tuples(st.sampled_from(("dynkin", "solomon", "check")), st.integers(-3, 9).map(str)),
)


def main_exit_code(argv):
    """cli.main in process, output discarded; argparse's own exit counts as a code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None)
@given(DESC_ARGV)
def test_desc_parsers_end_in_an_exit_code_promptly(argv):
    t0 = time.monotonic()
    assert main_exit_code(["desc", *argv]) in (0, 2, 3)
    assert time.monotonic() - t0 < 1.0


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
    ("desc check 6", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 6 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
    ("desc check 7", "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    ("desc check 7 --json", "09bbb4d5b2d5762de0a208f400f10b9ac5d551f8cdcc6ebca983c388b6985679"),
]


@pytest.mark.parametrize("argv,digest", DESC_GOLDEN, ids=[a for a, _ in DESC_GOLDEN])
def test_desc_output_is_byte_identical(argv, digest):
    proc = subprocess.run([sys.executable, "-m", "gebra", *argv.split()], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


RICH_TABLE = """
mode: explicit
alphabet: a:1, b:2
bound: 6
a , a -> 2*b
a , b -> 1/2*a + b
b , a -> 1/2*a + b
a.a , a -> -1*b
a , a.a -> -1*b
a.b , b -> 3*a
"""

# Non-integral brackets, two of which cancel to zero when the table is read.
HALF_TABLE = """
mode: explicit
alphabet: a:1, b:1
bound: 7
a , b -> 1/2*a + -1/2*b
b , a -> 1/2*b
a , a -> -1*b + 1/3*a
b , b -> 1/2*a + -1/2*a
a.b , a -> 2/3*b
a , b.a -> -3/2*a + 1/2*a + a
"""

# sha256 of the stdout of each word-side command, pinned from the route that
# enumerated every block decomposition.  An argument "@qs", "@fl", "@rich" or
# "@half" stands for the path of a file holding QS_TABLE, FLALG_TABLE,
# RICH_TABLE or HALF_TABLE.  The length-7 entries at the end were pinned from
# the route that kept every term as a Word with a Fraction coefficient.
WORD_GOLDEN = [
    (('eulerian', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('eulerian', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('eulerian', 'a.b'), "0b264603badb3e45d5f3bb664f4bfd6371386259fa59cec61ed1b06aeccf80c9"),
    (('eulerian', 'a.b', '--json'), "5b0837ba09fe2f0e278e0be70fe23efe37488bdda0f1370668d60943c634704f"),
    (('eulerian', 'a.b.c'), "407fd88c06ff32b7309a6937cbffe9d78737fe16422113894481388ff4644646"),
    (('eulerian', 'a.b.c', '--json'), "d9739cc8eee0669ea1fd695457b68242187840886ece32dbc025553c79cd38aa"),
    (('eulerian', 'a.b.c.d'), "615f849035d3474e26db6967cf83cc2e0ea075ec59f33d7406cc9ff816c547d6"),
    (('eulerian', 'a.b.c.d', '--json'), "1666e881a5c4423e7088526462469337a4592b7c93c285726a80d06440aa29da"),
    (('eulerian', 'a.b.c.d.e'), "c25ac86d7edfb3d02049f635aafac93c7640b8597778d6f81e25cd51675807f2"),
    (('eulerian', 'a.b.c.d.e', '--json'), "715071f524db4ec3ed4502632f852f400e9023756a19edb9146985258fe81702"),
    (('eulerian', 'a.b.c.d.e.f'), "7d8f4c0848de55a320f203c64f793f5b6c579e52787f1a2621386d2b4cb3028c"),
    (('eulerian', 'a.b.c.d.e.f', '--json'), "33990b621cef028d9986f193a18e01269d33baddf7314b612c9482aff8d8ae00"),
    (('varpi', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('varpi', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('varpi', 'a.b'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'a.b', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'a.b.c'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'a.b.c', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'a.b.c.d'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'a.b.c.d', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'a.b.c.d.e'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'a.b.c.d.e', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'a.b.c.d.e.f'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'a.b.c.d.e.f', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('omega', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('omega', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('omega', 'a.b'), "3028acf5e4c1117ab3d2bfbf5ecffb4d3147c9acb452fb375f27a57acd0bc9b7"),
    (('omega', 'a.b', '--json'), "33924c247d716184b133a544cd793db9d3c17928f12d6cfed2085b12142694c6"),
    (('omega', 'a.b.c'), "5509d18a8093bf49f4814cb919b67420450a64de047d36299f597fc6055ff462"),
    (('omega', 'a.b.c', '--json'), "9c86401016c1cc821202069fa712d874f15f79af936b1e8ee19bef4f271e78af"),
    (('omega', 'a.b.c.d'), "e92df2c02b3346ce1ecf15be726cb452bcdf752e884b9739cafe331acec13dfa"),
    (('omega', 'a.b.c.d', '--json'), "3a54030f85368e1af6d9f762c043092c238f6857b87f2071db1d7e3ad48928bc"),
    (('omega', 'a.b.c.d.e'), "272b3c388e100ef72ef30f9869b7f76419095f8968f738e7502ad913ae1ee5c1"),
    (('omega', 'a.b.c.d.e', '--json'), "bb411f937aa9a7f158cf6dc3b52afac9d4b9e622ad8b5c4c90470482f9f7284d"),
    (('omega', 'a.b.c.d.e.f'), "d54044857bb959b599ef6ebc76da3732dda6e146a349857391106162880c7df9"),
    (('omega', 'a.b.c.d.e.f', '--json'), "472da5563077420d94ba8bb1fded1b427c8857bc9ded3a50c0ad694fbcf54031"),
    (('omega', '2 + 1/2*a.b + -3*b.a.c'), "05ffdeee2ee6b76132df72910fddb4f79f68e1387ab96b73a9c9fafd83906d82"),
    (('omega', '2 + 1/2*a.b + -3*b.a.c', '--json'), "468f5fc72527e19d2333cbd964dc513025489053e5e154d415ed911f5da2dbf0"),
    (('zeta', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('zeta', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('zeta', 'a.b'), "3028acf5e4c1117ab3d2bfbf5ecffb4d3147c9acb452fb375f27a57acd0bc9b7"),
    (('zeta', 'a.b', '--json'), "33924c247d716184b133a544cd793db9d3c17928f12d6cfed2085b12142694c6"),
    (('zeta', 'a.b.c'), "5509d18a8093bf49f4814cb919b67420450a64de047d36299f597fc6055ff462"),
    (('zeta', 'a.b.c', '--json'), "9c86401016c1cc821202069fa712d874f15f79af936b1e8ee19bef4f271e78af"),
    (('zeta', 'a.b.c.d'), "e92df2c02b3346ce1ecf15be726cb452bcdf752e884b9739cafe331acec13dfa"),
    (('zeta', 'a.b.c.d', '--json'), "3a54030f85368e1af6d9f762c043092c238f6857b87f2071db1d7e3ad48928bc"),
    (('zeta', 'a.b.c.d.e'), "272b3c388e100ef72ef30f9869b7f76419095f8968f738e7502ad913ae1ee5c1"),
    (('zeta', 'a.b.c.d.e', '--json'), "bb411f937aa9a7f158cf6dc3b52afac9d4b9e622ad8b5c4c90470482f9f7284d"),
    (('zeta', 'a.b.c.d.e.f'), "d54044857bb959b599ef6ebc76da3732dda6e146a349857391106162880c7df9"),
    (('zeta', 'a.b.c.d.e.f', '--json'), "472da5563077420d94ba8bb1fded1b427c8857bc9ded3a50c0ad694fbcf54031"),
    (('zeta', '2 + 1/2*a.b + -3*b.a.c'), "05ffdeee2ee6b76132df72910fddb4f79f68e1387ab96b73a9c9fafd83906d82"),
    (('zeta', '2 + 1/2*a.b + -3*b.a.c', '--json'), "468f5fc72527e19d2333cbd964dc513025489053e5e154d415ed911f5da2dbf0"),
    (('eulerian', 'b'), "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f"),
    (('eulerian', 'b', '--json'), "dada0a36fec9034ece5030d7596b7d516e4ebfe0a7fe5c3f74362721b87d91ff"),
    (('eulerian', 'b.a'), "39f5dcbac586016847aed19685b29140cba09a696ab0e0989d7f3e7b02f70c74"),
    (('eulerian', 'b.a', '--json'), "b869846b8849f2a93c113ba4eca6ef1487ead9481a160e1f4f8aae68bd5a8f01"),
    (('eulerian', 'b.a.b'), "401d8cdb18cfa12e5d1ea3a72e00ecc9093f15c95961442ef09397b6fe37b449"),
    (('eulerian', 'b.a.b', '--json'), "2c76e14a456011aeb3d4c91f7afbecb2eb02bfd807cd7e68b48a80b257e57a6f"),
    (('eulerian', 'b.a.b.a'), "4e8043f08fa905d22cb71ac34ab05e08ef37217e7119985af0cddce87987ea7a"),
    (('eulerian', 'b.a.b.a', '--json'), "5b570307058f29d0cab81d6e23c0474ea533e05e4c3213dbffc3c3e7cf704fa0"),
    (('eulerian', 'b.a.b.a.a'), "b2f96ac2c5ec6ae004a67f0b5239219589f7fee8b50518d807f2f82928e0f7d8"),
    (('eulerian', 'b.a.b.a.a', '--json'), "4dd6af4158381a2a0e4e77928e72e6c4c3d8dfad8623758cb00a2d5fc09d78aa"),
    (('eulerian', 'b.a.b.a.a.b'), "4da88b19b32b02879da51e055384859eb272d6ca580c7b85dbe79684f6ad21a2"),
    (('eulerian', 'b.a.b.a.a.b', '--json'), "17fe053de26504b6769671062a4ce23b6285e51778492ff0b02a6319ba5dd1b2"),
    (('varpi', 'b'), "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f"),
    (('varpi', 'b', '--json'), "dada0a36fec9034ece5030d7596b7d516e4ebfe0a7fe5c3f74362721b87d91ff"),
    (('varpi', 'b.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'b.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'b.a.b'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'b.a.b', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'b.a.b.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'b.a.b.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'b.a.b.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'b.a.b.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', 'b.a.b.a.a.b'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', 'b.a.b.a.a.b', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('omega', 'b'), "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f"),
    (('omega', 'b', '--json'), "dada0a36fec9034ece5030d7596b7d516e4ebfe0a7fe5c3f74362721b87d91ff"),
    (('omega', 'b.a'), "94b21754fc3b9ea924b735eb24a47b2dd24612f859b02aaa81b5d6aec29f2669"),
    (('omega', 'b.a', '--json'), "c6b7372ae0f83c8696cebdb4fccc397e73caf12772043cc3f0df50e432817754"),
    (('omega', 'b.a.b'), "49b0d7a199254798c2842f5294a287bf64226c4a5de9ccc8aac4ebc56dd0abcf"),
    (('omega', 'b.a.b', '--json'), "2683b7bf0135499b2ca73e97168e81d8364b35fd6ffb37105dfa202289d851e7"),
    (('omega', 'b.a.b.a'), "f8ff914a7322c60b7eeac94d8548851b29e15c38c45eac71b4f8962dca9e5326"),
    (('omega', 'b.a.b.a', '--json'), "d13843688815e2e6e2095030b77908ea0cb719cc9fa4d949b102d4521d6f556c"),
    (('omega', 'b.a.b.a.a'), "832aaf0d39444c32bb210077f9596a9a8b50ed5845bbaa77ff8f92945c617368"),
    (('omega', 'b.a.b.a.a', '--json'), "78543ddcb88d0c439846cfbc307af422605a05fc2a453537eb9b5b1ec872d366"),
    (('omega', 'b.a.b.a.a.b'), "fcd5d5e050447c297609af740aeb261c6c543629352f794bad02dd6959189c04"),
    (('omega', 'b.a.b.a.a.b', '--json'), "17aa2807e817c6328615b76b7bcfc7334c0404d379ed5d7b95026987811c974b"),
    (('omega', 'a + -1*a.b + 2/3*b.a.a'), "9f463f956a4f659b24b99326f38a5c977f4dd8556690da4def56d394ce5bc684"),
    (('omega', 'a + -1*a.b + 2/3*b.a.a', '--json'), "590eb360550a7c5a6bef8cc5c909b14b14b2b019825d8eba72fce928b14b53e2"),
    (('zeta', 'b'), "0263829989b6fd954f72baaf2fc64bc2e2f01d692d4de72986ea808f6e99813f"),
    (('zeta', 'b', '--json'), "dada0a36fec9034ece5030d7596b7d516e4ebfe0a7fe5c3f74362721b87d91ff"),
    (('zeta', 'b.a'), "94b21754fc3b9ea924b735eb24a47b2dd24612f859b02aaa81b5d6aec29f2669"),
    (('zeta', 'b.a', '--json'), "c6b7372ae0f83c8696cebdb4fccc397e73caf12772043cc3f0df50e432817754"),
    (('zeta', 'b.a.b'), "49b0d7a199254798c2842f5294a287bf64226c4a5de9ccc8aac4ebc56dd0abcf"),
    (('zeta', 'b.a.b', '--json'), "2683b7bf0135499b2ca73e97168e81d8364b35fd6ffb37105dfa202289d851e7"),
    (('zeta', 'b.a.b.a'), "f8ff914a7322c60b7eeac94d8548851b29e15c38c45eac71b4f8962dca9e5326"),
    (('zeta', 'b.a.b.a', '--json'), "d13843688815e2e6e2095030b77908ea0cb719cc9fa4d949b102d4521d6f556c"),
    (('zeta', 'b.a.b.a.a'), "832aaf0d39444c32bb210077f9596a9a8b50ed5845bbaa77ff8f92945c617368"),
    (('zeta', 'b.a.b.a.a', '--json'), "78543ddcb88d0c439846cfbc307af422605a05fc2a453537eb9b5b1ec872d366"),
    (('zeta', 'b.a.b.a.a.b'), "fcd5d5e050447c297609af740aeb261c6c543629352f794bad02dd6959189c04"),
    (('zeta', 'b.a.b.a.a.b', '--json'), "17aa2807e817c6328615b76b7bcfc7334c0404d379ed5d7b95026987811c974b"),
    (('zeta', 'a + -1*a.b + 2/3*b.a.a'), "9f463f956a4f659b24b99326f38a5c977f4dd8556690da4def56d394ce5bc684"),
    (('zeta', 'a + -1*a.b + 2/3*b.a.a', '--json'), "590eb360550a7c5a6bef8cc5c909b14b14b2b019825d8eba72fce928b14b53e2"),
    (('eulerian', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('eulerian', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('eulerian', '--table', '@qs', 'x1.x2'), "2658dd97300342e177149cd28097a7a87d23b6b8639ce6626d47c1eda7867d47"),
    (('eulerian', '--table', '@qs', 'x1.x2', '--json'), "265a45bc53342b351b615a21033e50a0560cec2982ab11e7d1e29e6159e4e4ab"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1'), "2a32c80c05fc66a2327d1b28d582271973253262245e3172842a21da2d8df2a8"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1', '--json'), "1828796131c116fca7edae345b631997e675f87542b5e93d7cdf461128b930c9"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3'), "a1e0b2b1702ab0c2bfae997cd2101a7621b20e7d17acaa264a4d93534f9ffe61"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3', '--json'), "169c6525f45f124e09738d0d5d56a2a411b3399d629170d355147be60e690041"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1'), "6ce7dfe0539115920a518525585aeff2ec2a545b0ce0b4706b085c93d880a381"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1', '--json'), "025d23185c9af22f9ce2bf8f3993ba49419e3ec08cab81caf700697417334b93"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "f7a33997ab7540cd46cced9e3ac4ca722fef3d2a954897777cbae2408bf73552"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "950892e50cd3c2c5bedc648d535ab1988122fcd368cbf2b09457bfd30cff3297"),
    (('varpi', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('varpi', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('varpi', '--table', '@qs', 'x1.x2'), "280f537d8840a30ec7f71a12c402f4856fb23959d75276803cc9d632509a7f43"),
    (('varpi', '--table', '@qs', 'x1.x2', '--json'), "cbc7ec564ad18d853a2aac65f7e0033e8de523fdcb923823be4806eaf7c318bc"),
    (('varpi', '--table', '@qs', 'x1.x2.x1'), "0a7d1734f2bdea6f50ae94689653057e22deabbac462033beae1d1f073b7e3a7"),
    (('varpi', '--table', '@qs', 'x1.x2.x1', '--json'), "e0ca33127bf88e20fbd3484180e61d5d9f68391e09375ce81f799bbe376f4628"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3'), "b1dd67eaf5448ec7bafd046ec9c923c6561d517623c0ce8e7bcafa914a7e5901"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3', '--json'), "ab4e7231367b0a1cdca644893b14db05f3cd707cb33e526c70ef397fd98b190d"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1'), "3821608f34cc1d0e6eee4e62d7b47a40eb3f7e83f897cc2ed34af3bcb4aeb57d"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1', '--json'), "ad269ecd548554765661bf3fbdda2b1e741bcd38f0fe1b1b9a70411ccea4bb36"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "0d3be420ab9639ef477097e69fe3f6ac807fe21c3afd82a0119111b973336bab"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "240f42938895a04531fc989a9e36eff93c14ee678d7bbb8ba3c32478f60da77e"),
    (('omega', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('omega', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('omega', '--table', '@qs', 'x1.x2'), "d43adf8d1b1acd5875633a393b08fb2c419540c67c385971b266646153947c52"),
    (('omega', '--table', '@qs', 'x1.x2', '--json'), "409f56845e1163cb02b7582532e8f76889cc39d00f5948a373671f3809a0bc59"),
    (('omega', '--table', '@qs', 'x1.x2.x1'), "17e8c772baef0637c2b9050332284812d7ee0af8126b80f795f5d75d9932de7e"),
    (('omega', '--table', '@qs', 'x1.x2.x1', '--json'), "72395203222ca1e682d95f1883f96f58523d1117f8996e89cdb7ed8da4d365e4"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3'), "7a4dc5cb02ea9b07d646298b45dc83046001990386a48e4a8a0cdfa94441fefa"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3', '--json'), "7f694de4ebe83e2da7c401f12aa5b2d7afe534edfc5e4500eda48a95c129992f"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1'), "291ee00380872d929a5ffa60a23db1980f0248a7fc6b18bb0119562621af74ab"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1', '--json'), "04a59360e867690a40260cb71a3abe7dba22b8190f18947934bdc73bd55c198e"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "492b6adda042e43347d60f5a00b17115359211b19c316c9eabcd498c82c1e402"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "732a4415688f413f46853eb9bf7de2f5cc5530b7b54f51e650b1f3447de7c924"),
    (('omega', '--table', '@qs', '2 + 1/2*x1.x2 + -3*x2.x1.x1'), "87078d003772cafd199c05f59b2233768768e3c817780acaccc83a90d665086e"),
    (('omega', '--table', '@qs', '2 + 1/2*x1.x2 + -3*x2.x1.x1', '--json'), "20555869973d9ee925b82a40834bfdc19c42b2c9fa57e33cc3f5eea703d243f0"),
    (('zeta', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('zeta', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('zeta', '--table', '@qs', 'x1.x2'), "08c16d67b326ed84ee276a7869562bf5599201339908e1522ed537c0c8d48c33"),
    (('zeta', '--table', '@qs', 'x1.x2', '--json'), "20351078c14d621b79194b2fdaf4fb7a9d42ed4217e81d5e8686e99a8b92ab9b"),
    (('zeta', '--table', '@qs', 'x1.x2.x1'), "ae6d10c6c3c10663641e3d79eb1f3b9e387f2fcaad26b025a67ccd9b322653e6"),
    (('zeta', '--table', '@qs', 'x1.x2.x1', '--json'), "06a1a445debb42ea7ec3821df6fef640864cef7ac1e757a4e8362d8ea98d6fe7"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3'), "095aece16b59ff1e0a98f9211a534ec241e58b66a5566e30f470c914d334946d"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3', '--json'), "ab5c66a87d5230989c6359b2b66920bcc23bfa8def26dcce4049434d29849164"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1'), "31ba62c3571beb09d8ed3056100cd879985ffc7217953bb791565eb59a9601e0"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1', '--json'), "d19c6531d8787a8dbdbc1b6e9bea69427a389bdf0c46173e87e22cfb00a2476b"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "c0bc05505b1312dab313ad7fa4c489ce5070d897d5607c2f7e529f4033416075"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "8c66560382649d8f151de0caaf4e1b41e0a2d81d73c524e8b5f4d225b0c8acf3"),
    (('zeta', '--table', '@qs', '2 + 1/2*x1.x2 + -3*x2.x1.x1'), "5e4ab76231e831ec796abd771d2121dfeeea2b590197d0e54dc63e7e4494333f"),
    (('zeta', '--table', '@qs', '2 + 1/2*x1.x2 + -3*x2.x1.x1', '--json'), "a7c1c54af7134ff080f353e2ef1d1657ad024e35cae692600dd6bd42eb97535c"),
    (('eulerian', '--table', '@fl', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('eulerian', '--table', '@fl', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('eulerian', '--table', '@fl', 'a.a'), "f4d9d826626d993c8427de9607157405c8ebab85a3ca846e4e3a6bb0324dc180"),
    (('eulerian', '--table', '@fl', 'a.a', '--json'), "e6420465149916218b8d37c64e98b8e35c63203275f82b830d1c9f9f8d5ed2a0"),
    (('eulerian', '--table', '@fl', 'a.a.b'), "aac7cabb1b9c3334179167f7597e157169f5466503cf754fcbb79fc28aa58306"),
    (('eulerian', '--table', '@fl', 'a.a.b', '--json'), "61e78594ae6d05decaf9fd37d3fd0e93705faadbdefebdd410acf4d305281149"),
    (('eulerian', '--table', '@fl', 'a.a.b.a'), "a362523c04e066d4d05cb9acedeb4ea5c3d24ddc98b8ce612a8c0160640f0a73"),
    (('eulerian', '--table', '@fl', 'a.a.b.a', '--json'), "8842749c08a45816e26b7de6d4dd697ea71c127b7f0e7e7806cdf2c157d629f4"),
    (('eulerian', '--table', '@fl', 'a.a.b.a.a'), "55e49f3b3a97e3d3ac0f1877bbb7842d1197789b36ed4af9f665d6805b3240f0"),
    (('eulerian', '--table', '@fl', 'a.a.b.a.a', '--json'), "aed9e4e66f8c21c9baa67ae623c9e443d4dd0c463ceeb6b9e1736a7dc16839ba"),
    (('eulerian', '--table', '@fl', 'a.a.b.a.a.a'), "f9f710e759fcae8811eee14c7ad0c15d91459392cd94b3a491eacc3c951c4aa1"),
    (('eulerian', '--table', '@fl', 'a.a.b.a.a.a', '--json'), "d013c127d316aefb21511e4f8926ecfea1200a13dd393978bbfef823ce2e119b"),
    (('varpi', '--table', '@fl', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('varpi', '--table', '@fl', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('varpi', '--table', '@fl', 'a.a'), "f4d9d826626d993c8427de9607157405c8ebab85a3ca846e4e3a6bb0324dc180"),
    (('varpi', '--table', '@fl', 'a.a', '--json'), "e6420465149916218b8d37c64e98b8e35c63203275f82b830d1c9f9f8d5ed2a0"),
    (('varpi', '--table', '@fl', 'a.a.b'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.a.b', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', '--table', '@fl', 'a.a.b.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.a.b.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', '--table', '@fl', 'a.a.b.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.a.b.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', '--table', '@fl', 'a.a.b.a.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.a.b.a.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('omega', '--table', '@fl', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('omega', '--table', '@fl', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('omega', '--table', '@fl', 'a.a'), "bb8522ffb2639f36d9f0f08c852258d6ceb193d0db76b1394a374ef1de8700d3"),
    (('omega', '--table', '@fl', 'a.a', '--json'), "a6a92a45dffb97d3fc19c88418e263108d23b1f1708c8095ac0005f94803008e"),
    (('omega', '--table', '@fl', 'a.a.b'), "09d84da8a03eeac073d56b681a9f31f3d0c1820e6100fdb2fee284d0e6e3a0b4"),
    (('omega', '--table', '@fl', 'a.a.b', '--json'), "0626675802e8171d0ace098ec053baa84e3db12bc5a162c9becd93216c20d2bb"),
    (('omega', '--table', '@fl', 'a.a.b.a'), "bdc9efad1ea37b05942bd8b6dc810f2c6630964f1a63040dad316afa5b7ed4a0"),
    (('omega', '--table', '@fl', 'a.a.b.a', '--json'), "981996a9e3bdc75e23ca5938c52e966c48a561c7ef552e5d2a61ba6bcb88426a"),
    (('omega', '--table', '@fl', 'a.a.b.a.a'), "8afc76419c97e38353987d68cea0f2c4831e61276791009d54e80e6d31ff33d7"),
    (('omega', '--table', '@fl', 'a.a.b.a.a', '--json'), "7ca248772b83855357ff1c85aedcaf8cd5422ffc414c365fdb4716dec44d230c"),
    (('omega', '--table', '@fl', 'a.a.b.a.a.a'), "7279fc7b09bc21d00fb450fca021765bfe962a9bb7cc61ce26522bbd994bc274"),
    (('omega', '--table', '@fl', 'a.a.b.a.a.a', '--json'), "354a1c452d6d71c5649c28af3250b6fa0f6e37285144f314d855c5e06dd59534"),
    (('omega', '--table', '@fl', '2 + 1/2*a.a + -3*b.a.a'), "840a8d3a8f415281109b108dd9165015f993ae139415a0bdc7c87f4cca89b870"),
    (('omega', '--table', '@fl', '2 + 1/2*a.a + -3*b.a.a', '--json'), "585f24b6c70ca56aea9927c314e8210fd019b97ed62d5063bd3c4f47c0c2d491"),
    (('zeta', '--table', '@fl', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('zeta', '--table', '@fl', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('zeta', '--table', '@fl', 'a.a'), "a8f679af253c00d6cc564ef3f439772a54ed064ecf531b79008dd422dbbe402c"),
    (('zeta', '--table', '@fl', 'a.a', '--json'), "9f19ebc98e3af1c5fc9cc3068bf1a97db68d765ba121b28b3a722c784cffe04f"),
    (('zeta', '--table', '@fl', 'a.a.b'), "b87658e62a7b77c68f209bdcdfe60245964adaac0692ce71dff36c6c9e8c2f2e"),
    (('zeta', '--table', '@fl', 'a.a.b', '--json'), "358cb4725ebf9ca911cb9d178a7911095329aea97e86287cef81480cbdc842bb"),
    (('zeta', '--table', '@fl', 'a.a.b.a'), "8551dbce75f8c1b1a0456569380d14ed4154521f5e2a43937c7055e4bf52405c"),
    (('zeta', '--table', '@fl', 'a.a.b.a', '--json'), "cd0b46a25328138b56e5504094933f37213feb0440ee985cd96489fde71267eb"),
    (('zeta', '--table', '@fl', 'a.a.b.a.a'), "0795f7b6ea5726b4f997b1d39c6bae1a0f58f81a6d7d7ce945b5db3f983c3d22"),
    (('zeta', '--table', '@fl', 'a.a.b.a.a', '--json'), "715a2b9b8a7b21533ddf569688a3d789bfe80d3533a4df0d299aa5559d563faa"),
    (('zeta', '--table', '@fl', 'a.a.b.a.a.a'), "b7e7436a98feb6cb0a2a7c74729c6acb9fb74af7de0277675da40cc6b0ee4f17"),
    (('zeta', '--table', '@fl', 'a.a.b.a.a.a', '--json'), "ccff723bd09f68d6ca99646fc891adbba989a753a6bbf4c8504e8f802e31136d"),
    (('zeta', '--table', '@fl', '2 + 1/2*a.a + -3*b.a.a'), "97e1228c799c6c1af699c62b9a02b14eb72e13395dd0ea7b666449e4407d29da"),
    (('zeta', '--table', '@fl', '2 + 1/2*a.a + -3*b.a.a', '--json'), "bfa061d2889bb3aea8209550518ed8988e878c509dce5069217bf05a9bead1c9"),
    (('eulerian', '--table', '@rich', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('eulerian', '--table', '@rich', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('eulerian', '--table', '@rich', 'a.b'), "18655c24630ba10c2a8de5247ba116e9f87490325ac58c897b3f888f68d8d7d3"),
    (('eulerian', '--table', '@rich', 'a.b', '--json'), "48e3e7df8d07fb6808a27adf79bd984ddc0a3e946c1fb5efa9ac87b5bb5075fc"),
    (('eulerian', '--table', '@rich', 'a.b.a'), "ba0cb440b1beb17bc68d2142d1358ed89ea8a5af4439a0df91955ae4ee537ec7"),
    (('eulerian', '--table', '@rich', 'a.b.a', '--json'), "f4ae896261af820989288249e5799fc287da5378f94ca61bd4e92a8eb7cf76c3"),
    (('eulerian', '--table', '@rich', 'a.b.a.a'), "a159c7dfc8f389ab1325170ad98bbed6627b9b497f6f49335c2b5d96ef55ed85"),
    (('eulerian', '--table', '@rich', 'a.b.a.a', '--json'), "2f7aabfd44400efc9c504e853e153ab35054a11231e2339e04444ea5193ac7c6"),
    (('eulerian', '--table', '@rich', 'a.b.a.a.b'), "6d633dc1357576bbbe363bbe0e4c9594e9b8e8a1b893419d734adab70b705969"),
    (('eulerian', '--table', '@rich', 'a.b.a.a.b', '--json'), "9bab89f6423e0068b09b2411c5d1399e4c0da2f6a0cc0dc486412ee2987f1634"),
    (('eulerian', '--table', '@rich', 'a.b.a.a.b.a'), "3b0baf57c6d662f199c333d951edec57bf6d0655a3919357815448f8158d52cc"),
    (('eulerian', '--table', '@rich', 'a.b.a.a.b.a', '--json'), "44aef9af502f341aff19014bc88cac8b528da2a54dc9981a4504a294c33fbde9"),
    (('varpi', '--table', '@rich', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('varpi', '--table', '@rich', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('varpi', '--table', '@rich', 'a.b'), "ef8b0c5e54e4b417aa38e8d266e85019c16f4cc81c1914a305f90485dab726d4"),
    (('varpi', '--table', '@rich', 'a.b', '--json'), "5f13bf6b38f21863f2bc509c73976bfe1af8fcc73553aca6814cd9380823986c"),
    (('varpi', '--table', '@rich', 'a.b.a'), "6242ecb6b0dd70246b2c720430682a9ec63e8cce658ea5b8b66c498e2c1b492d"),
    (('varpi', '--table', '@rich', 'a.b.a', '--json'), "73021de778e303894a049ec41be07ca903e78a7cfc520e99bc10f84ce164e4d3"),
    (('varpi', '--table', '@rich', 'a.b.a.a'), "32f898d1798f7999ec915cabf58653c9ee4aabe2b2fd2a185e8fe464d1733abc"),
    (('varpi', '--table', '@rich', 'a.b.a.a', '--json'), "7817e4e9320a0f8a82d4c7cc3a8c624ab0dea090dbbaaaa0f4b5d84a925ea833"),
    (('varpi', '--table', '@rich', 'a.b.a.a.b'), "a7c951edacd41ee43f40bd93625cd80cec693976926afc9465ac565f16842673"),
    (('varpi', '--table', '@rich', 'a.b.a.a.b', '--json'), "e9ddf8a60a50b77d68e350d5650ad99fd83f6b3f41b8fd02bc0ab3f0b36996d8"),
    (('varpi', '--table', '@rich', 'a.b.a.a.b.a'), "d55357e5e9d7fd2e209ef08d7a4938f318ed8bed1ac0429f58c53fef209d1704"),
    (('varpi', '--table', '@rich', 'a.b.a.a.b.a', '--json'), "809fb7ec39c4c5773b28c37b92043c34e972588736e364cba890f02f5d6e10c2"),
    (('omega', '--table', '@rich', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('omega', '--table', '@rich', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('omega', '--table', '@rich', 'a.b'), "7de79c84d3fde94e2dbc4ad2459e5b90c7c6d03d7a6183db65775cc9eaa08843"),
    (('omega', '--table', '@rich', 'a.b', '--json'), "21e7bab7f96f3073c7fd37574a8b162c91feb12dcc2cb5285e859a35b1484fd7"),
    (('omega', '--table', '@rich', 'a.b.a'), "bd2af46b9624517d94646abe9fb951b2b202b523c46010344f31767548b18cf5"),
    (('omega', '--table', '@rich', 'a.b.a', '--json'), "2133a6701381c61443a3916a30fa3eaa0dba3ea8e687c3d8d2dd31163ea248f1"),
    (('omega', '--table', '@rich', 'a.b.a.a'), "be9f6c9b2176f02818c6c410291dce958d8ab9c207403530d288b7b059459f90"),
    (('omega', '--table', '@rich', 'a.b.a.a', '--json'), "c47537ad194235bb3e4846539adb099f442ef0ff85eccb18f6a137230ef92395"),
    (('omega', '--table', '@rich', 'a.b.a.a.b'), "23cc2f57206c383056a03b74cdb3306bffe8f3261aaf5b6a9aaf3438bdac641f"),
    (('omega', '--table', '@rich', 'a.b.a.a.b', '--json'), "8daa335107c042e03a59479234c54b9c5b116d39497dac5e651899ccb9565b94"),
    (('omega', '--table', '@rich', 'a.b.a.a.b.a'), "18836ad05880a577612ac71975add15db0a38b081f4c6455e01d5fe2dba917ca"),
    (('omega', '--table', '@rich', 'a.b.a.a.b.a', '--json'), "27e34266773474575cbc470b7d3411927e14fd0d19f1d7483f89801744c720df"),
    (('omega', '--table', '@rich', '2 + 1/2*a.a + -3*b.a.a'), "c2eb111745136832a151568cb9e72a91c3a3970c6136516aef2d2290556b929a"),
    (('omega', '--table', '@rich', '2 + 1/2*a.a + -3*b.a.a', '--json'), "80693eb48a6f6ff5094ffaa53ff4a8d5e4e047c21a7e9f52a816d1bd52618bdc"),
    (('zeta', '--table', '@rich', 'a'), "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    (('zeta', '--table', '@rich', 'a', '--json'), "b433f1b22a19e6f3f99dc476cd66189e9df9b4b026a3943293cefd8793349fa8"),
    (('zeta', '--table', '@rich', 'a.b'), "1ce99f6abed5edca8734b606a485e4315ba7f1b599a3f4d3661e38b8f883aa93"),
    (('zeta', '--table', '@rich', 'a.b', '--json'), "8a98c59e989393bd17f7559d79f074df97a85c947b3b509105bc8ebc8522caf9"),
    (('zeta', '--table', '@rich', 'a.b.a'), "df1db2bd814ef5eacc4da0ee5d8befffb7b68d7dfe845b10757ef007c29ab319"),
    (('zeta', '--table', '@rich', 'a.b.a', '--json'), "209142504d542e6d6267fa0457d8dc9ca96bd6ff40be322bb295c383b1865466"),
    (('zeta', '--table', '@rich', 'a.b.a.a'), "6852c804af70db2d0aa7ba309fc43a49b42203583a3a81ae94d3beb60c56da61"),
    (('zeta', '--table', '@rich', 'a.b.a.a', '--json'), "f5d69312beb05f631dd232427360fb7a95175f1fb36b44911b8dc9a16c02f611"),
    (('zeta', '--table', '@rich', 'a.b.a.a.b'), "da8068c448a73fc31e83ed4e1eab4a7ef1c5acd62abbc99d9137699e80c58201"),
    (('zeta', '--table', '@rich', 'a.b.a.a.b', '--json'), "0715fef583c09e3fef10aac9403976bb363a65636f87cde89912bcdc8421925f"),
    (('zeta', '--table', '@rich', 'a.b.a.a.b.a'), "8c91b3bd891841cfec5511aa14bc8d8c9c5724dc31962995aa180ebba2043e69"),
    (('zeta', '--table', '@rich', 'a.b.a.a.b.a', '--json'), "ec5305d2178a408dbda1db18dfe3176879aa80d5d7893009434dcddd83c47b1c"),
    (('zeta', '--table', '@rich', '2 + 1/2*a.a + -3*b.a.a'), "e87028db5793a63a755ba79688e090fc6a686b51aa019fde4c90c859ade4134d"),
    (('zeta', '--table', '@rich', '2 + 1/2*a.a + -3*b.a.a', '--json'), "cc5ce6369047561ef6915ef60c552d3966517b619c0e6002a3b22ead92d46ad1"),
    (('binf', 'prod', 'a.b.c', 'c.a'), "6e4293e31db99d1283749aef9805d5688103e14ce5d92d906ef33e13a7029754"),
    (('binf', 'prod', 'a.b.c', 'c.a', '--json'), "777098a869711f977539aaa365116f5bb5daecabb16160a48de9460896cccce6"),
    (('binf', 'prod', '--table', '@qs', 'x1.x2.x1', 'x3.x1'), "660ad3be359e1aaf3ffaaf0077d9db1a02f1c6265773b12d83a76c8868f6a286"),
    (('binf', 'prod', '--table', '@qs', 'x1.x2.x1', 'x3.x1', '--json'), "fbc433be7c4f21759b3839c403f49d62f77e1863676bf26b5b6623ef1335c2ec"),
    (('binf', 'prod', '--table', '@fl', 'a.a.b', 'a.a'), "03da4914f0f02809ebcf040c16290ddeb736945721ebfc1e311945c67963fa06"),
    (('binf', 'prod', '--table', '@fl', 'a.a.b', 'a.a', '--json'), "201c9da4ff6a2a4adeee35e2d6a9c0ab09f9801a52942b21c351967cc8d4b586"),
    (('binf', 'prod', '--table', '@rich', 'a.b.a', 'a.a.b'), "2891d97b17adf63e5f17297f2e8ac94788574bc82231efc0c2931cee23470458"),
    (('binf', 'prod', '--table', '@rich', 'a.b.a', 'a.a.b', '--json'), "726bda1caf3f7d6972affc08281ba46a292c1597458e92eb2da426e991c7a0c9"),
    (('shuffle', 'a.b.a', 'b.c'), "7af4564e4e1d039afd2ca00fd710b7afcdfc853bb484073892bc207f28df579f"),
    (('shuffle', '--alphabet', 'c,b,a', 'a.b.a', 'b.c'), "e9c9842465e059f502297d103cb4493d4d9d83b3697cda8376c9ee1f67d5db8f"),
    (('qshuffle', '--table', '@qs', 'x1.x2.x1', 'x2.x3'), "0a78ef5ae96fef8bd38d21d31e91145500ca013529dcb5d8259bbe121085ff11"),
    (('hoffman', 'log', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('hoffman', 'log', '--table', '@qs', 'x1.x2.x1'), "0a7d1734f2bdea6f50ae94689653057e22deabbac462033beae1d1f073b7e3a7"),
    (('hoffman', 'log', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "0d3be420ab9639ef477097e69fe3f6ac807fe21c3afd82a0119111b973336bab"),
    (('hoffman', 'exp', '--table', '@qs', 'x1'), "50313adddde6034b1eb0bffe6bba93a5ef922b5f013efbd95781f7fcc58db3f7"),
    (('hoffman', 'exp', '--table', '@qs', 'x1.x2.x1'), "956841a2027a268829c92a5513b17119de80be7f433ba6a5d8591b990e6da50d"),
    (('hoffman', 'exp', '--table', '@qs', 'x1.x2.x1.x3.x1.x1'), "dace921e1be8592267785b522f8b5a00adef463c0ba1913f60fb6d055a9c78c1"),
    (('shuffle', 'a.b.a', 'b.c', '--json'), "f3b8ceb559bf642e896f54b7606c16bb583e396a28414f51be571c61f96c2ff8"),
    (('shuffle', '--alphabet', 'c,b,a', 'a.b.a', 'b.c', '--json'), "3fa69b20a30b1147f7f7dbdd16495f591be66bcec7794450d247a23017a8e7f4"),
    (('qshuffle', '--table', '@qs', 'x1.x2.x1', 'x2.x3', '--json'), "b02e591c5747bde46bdefedb411b1fbaf03093bb5c7accdd8e7a1bebf18e082f"),
    (('hoffman', 'log', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('hoffman', 'log', '--table', '@qs', 'x1.x2.x1', '--json'), "e0ca33127bf88e20fbd3484180e61d5d9f68391e09375ce81f799bbe376f4628"),
    (('hoffman', 'log', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "240f42938895a04531fc989a9e36eff93c14ee678d7bbb8ba3c32478f60da77e"),
    (('hoffman', 'exp', '--table', '@qs', 'x1', '--json'), "064560f11b5f25f30cfe5b757547636ce2a196eab21bda9b35b32aa1a7558ea5"),
    (('hoffman', 'exp', '--table', '@qs', 'x1.x2.x1', '--json'), "be21c8ddfeaccb75ef4d197ebab39dc44d45cfe33109d09aa9f9fe97c8f8cc36"),
    (('hoffman', 'exp', '--table', '@qs', 'x1.x2.x1.x3.x1.x1', '--json'), "a82ea7a6df0b013be31f6b1fd11acd8808569bac98ace58ab1353c6ca52196fb"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2'), "10a9a11a0b9183fc438ddd79cd52681fcc43a49e25474378670998328da5cb69"),
    (('eulerian', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2', '--json'), "355b2164c222374f7c51d54db87f2d2dd90920ccd6f8b070e12e6d5129f3873d"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2'), "37f4d94400b0c7c4192843167a7657247105c47a9d8ee71190884ad9f7f35f3d"),
    (('varpi', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2', '--json'), "23028c2c5363111512c649a1c451f03d5e19d571be395d6b9ccfcc72d53212ad"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2'), "c9cb06d4e6ea7de4e3e941864bbe3acb18811c9976cd54abb5d255e41c18aef7"),
    (('omega', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2', '--json'), "60aba8835ad0171322de4a2f706244b6d0b9f9038c6c2dda8fe142df3944b7eb"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2'), "9edda6be73da45a131e3cf79e7d1582f863e48ff55fd5ed3ee7b2d1bc198b713"),
    (('zeta', '--table', '@qs', 'x1.x2.x1.x3.x1.x1.x2', '--json'), "c7388b810b59a0d0631b4a5db3017558643a8a83a237790a83bafb9d93d599c6"),
    (('eulerian', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1'), "d1908d891d2b393354e769989f78445ea0b3216381e9a5533a063950accb19dc"),
    (('eulerian', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1', '--json'), "328b11be464273fb99444936df5f19f5fe3f01781a1ad74474cbac96c825abcc"),
    (('varpi', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1'), "37f4d94400b0c7c4192843167a7657247105c47a9d8ee71190884ad9f7f35f3d"),
    (('varpi', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1', '--json'), "23028c2c5363111512c649a1c451f03d5e19d571be395d6b9ccfcc72d53212ad"),
    (('omega', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1'), "f7926c62ad137246e9061583b7f102c8f02fb2fcd56eb92337f89b60aa8df173"),
    (('omega', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1', '--json'), "d8ac35b1668807cee404314fed7b5e7a59bea4aa1cdd763804151eea2710d923"),
    (('zeta', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1'), "a52073aec2f9719de17a9254b403b6b9fedc6148b5930bc9f064383fca4125cb"),
    (('zeta', '--table', '@qs', 'x3.x1.x1.x2.x2.x1.x1', '--json'), "febbf9942e6750ea29e7fae7b8fb4f38907b452997bb65281309f5c5aa7e4711"),
    (('eulerian', '--table', '@fl', 'a.b.a.a.b.a.a'), "59213520f250b48fa4aa2abfb439f5455dba7b20987ac71c227f5275f2be3923"),
    (('eulerian', '--table', '@fl', 'a.b.a.a.b.a.a', '--json'), "61f07d73a32677490815a19054e4f7fe64bd5509bd9b3146e41bdf738e7e8329"),
    (('varpi', '--table', '@fl', 'a.b.a.a.b.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.b.a.a.b.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('omega', '--table', '@fl', 'a.b.a.a.b.a.a'), "e1c539e59286e08d6155ddbc39afa4a7ba42de116cad233d3d36d21f58cdc87d"),
    (('omega', '--table', '@fl', 'a.b.a.a.b.a.a', '--json'), "fb2514362fe5d94db51982d6ae58df1a7cd100916789cfe10d6da02fd94d6f5f"),
    (('zeta', '--table', '@fl', 'a.b.a.a.b.a.a'), "389d136caed5a353fcad00609890d626dd7cf8b1e69bd4183286b16e9736bb12"),
    (('zeta', '--table', '@fl', 'a.b.a.a.b.a.a', '--json'), "135a4e2f5a40a2dc1b3e424bfc6bbf0144324ef9d487669c399bdc51c4d81f55"),
    (('eulerian', '--table', '@fl', 'a.a.a.a.a.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('eulerian', '--table', '@fl', 'a.a.a.a.a.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('varpi', '--table', '@fl', 'a.a.a.a.a.a.a'), "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (('varpi', '--table', '@fl', 'a.a.a.a.a.a.a', '--json'), "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    (('omega', '--table', '@fl', 'a.a.a.a.a.a.a'), "5e906dcb6d7c16fa249701cb861b942f18bb92af9e707ba41936346204ab5d90"),
    (('omega', '--table', '@fl', 'a.a.a.a.a.a.a', '--json'), "ed30735143478103a000e19b9dfe7132c474983c1c0d637ea06f072ecbe4742c"),
    (('zeta', '--table', '@fl', 'a.a.a.a.a.a.a'), "b55fb84098aecf75d455d9873e0c60fa1492469e933280bb1068f052deed6809"),
    (('zeta', '--table', '@fl', 'a.a.a.a.a.a.a', '--json'), "e88c5167e0b7ad0fa53ce4ab4212ef00a1d13727b358653e8c33bf6b59f491e9"),
    (('eulerian', '--table', '@half', 'a.b.a.a.b.a.b'), "fc647e6604b91321c71b96771557536b04b1f44d596b8236aae1cd9e6b26c842"),
    (('eulerian', '--table', '@half', 'a.b.a.a.b.a.b', '--json'), "8e755962dc24e8134680fd1f73256e0a37bcf918436ca6ada22e9b9fabb86744"),
    (('varpi', '--table', '@half', 'a.b.a.a.b.a.b'), "db8e78e3d38e3b0bf9d1f113f8e576fe10751217e155b2aafa7692e6d52d05f5"),
    (('varpi', '--table', '@half', 'a.b.a.a.b.a.b', '--json'), "9c3930d8ac648a6476423acef542e08bfe3611f42d3d50842c111f6ac0c7713c"),
    (('omega', '--table', '@half', 'a.b.a.a.b.a.b'), "59a0cb7046939691a23011f61f28a9f707e52e684a396a9fe50d6cc6734e74b0"),
    (('omega', '--table', '@half', 'a.b.a.a.b.a.b', '--json'), "009c1ec634095f13580dcd659de2f32b1da78b716176316cd270bb86af978cb1"),
    (('zeta', '--table', '@half', 'a.b.a.a.b.a.b'), "84bace479b88219ae3008f189e2192f5488ccc09ad4ac1352c7041c0cf6d30fe"),
    (('zeta', '--table', '@half', 'a.b.a.a.b.a.b', '--json'), "da3189e902a7429f8333987196d4cf917d27bba194c6945237b6ff9dd9e8d6b4"),
    (('eulerian', '--table', '@half', 'b.a.a.b.b.a.a'), "86203570d3e8866a6da9eebd50093793fa0493fb447f47e04fb27b2441d877c5"),
    (('eulerian', '--table', '@half', 'b.a.a.b.b.a.a', '--json'), "5abdb0ec33b52fc1b06f4d98725baa3e2a3cc1353289624a85bbb58e80ea22de"),
    (('varpi', '--table', '@half', 'b.a.a.b.b.a.a'), "d138011e39fd13dff8a3db8579505b940549b184fc27bb8c944efc1015013db3"),
    (('varpi', '--table', '@half', 'b.a.a.b.b.a.a', '--json'), "a462642dbabbfa9f9907a71d551427db2e499ba3d8b08ccdec6c25fe386da52e"),
    (('omega', '--table', '@half', 'b.a.a.b.b.a.a'), "376a4d7250c4bd8b86b7e1cedf0cc401dbd0a7521625d85fc38816eb509ba8fd"),
    (('omega', '--table', '@half', 'b.a.a.b.b.a.a', '--json'), "e354f9cff0a7e4b4808aa5cd05e7aab004a74ddf985a4aa47812c9eb749e028c"),
    (('zeta', '--table', '@half', 'b.a.a.b.b.a.a'), "e90fd9ac6013744a4e06caba5dd6defbe13e332715c5af3d17c5b88fc2d38da4"),
    (('zeta', '--table', '@half', 'b.a.a.b.b.a.a', '--json'), "622a0ac0bb4266655efd6c07721a34f0cbc393054a4bf329fe1de31764f4d40f"),
    (('omega', '--table', '@half', '1/3*a.b.a + -2*b.b.a.a.b.a.b'), "9f354a2d860d1eaa34b921d0d844ed2399c743a1d4d9fe27a3fb6aa1c039137a"),
    (('omega', '--table', '@half', '1/3*a.b.a + -2*b.b.a.a.b.a.b', '--json'), "6b7488a83c986c2ee82630b640da2f0cfdf0a6f69eddbae1a9d97cdb55c0f896"),
    (('zeta', '--table', '@half', '1/3*a.b.a + -2*b.b.a.a.b.a.b'), "543faa208c893fbe984f3150813054b8c46b3e55303e9c065b4c98cf6e5618b7"),
    (('zeta', '--table', '@half', '1/3*a.b.a + -2*b.b.a.a.b.a.b', '--json'), "3fb906576870a0644ecef3a00907290b69b5f81c8e2c55afe6d663f0f562269a"),
]


@pytest.fixture(scope="module")
def table_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    paths = {}
    for name, text in (
        ("qs", QS_TABLE), ("fl", FLALG_TABLE), ("rich", RICH_TABLE), ("half", HALF_TABLE)
    ):
        path = root / f"{name}.tbl"
        path.write_text(text)
        paths["@" + name] = str(path)
    return paths


@pytest.mark.parametrize("argv,digest", WORD_GOLDEN, ids=[" ".join(a) for a, _ in WORD_GOLDEN])
def test_word_side_output_is_byte_identical(argv, digest, table_paths, capsys):
    from gebra.cli import main

    assert main([table_paths.get(a, a) for a in argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the outputs no other table pins: the named classes of
# topo ladder|corolla (whose JSON adds a "name" key), desc conv, and the
# pass/fail report of binf check (whose JSON is the report dict).  Pinned from
# the CLI that printed each kind of result through its own helper.
OUTPUT_GOLDEN = [
    (('topo', 'ladder', '1'), "ab2cdf4988525af2b0930955c1db5bd0bacc6946f9422b6daa4969f527b2eb38"),
    (('topo', 'ladder', '1', '--json'), "74137ecea3163a61f7719043fea7bf7c6b1c67b38ce8606ea333370bfd104889"),
    (('topo', 'ladder', '2'), "0dbff621951d875f20c6cffb599e4dca6f7b9c3daa4db52e9d3f9398a782f56e"),
    (('topo', 'ladder', '2', '--json'), "440f07796ae8c9bfc313918833866d7293a4a03fc57c9b16880ab7882b189e54"),
    (('topo', 'ladder', '5'), "321a3a0afb530fdf7dbff786ac977057dc82e69d4ce7946f7165a8d800394090"),
    (('topo', 'ladder', '5', '--json'), "973b6a0ee88609442803b0a91743af1681f2fc5f3a0cb69102736ee8464ae6b1"),
    (('topo', 'ladder', '8'), "3b7fd51bcf01bb5be044aad504f14291d535c736a31529157f271953bce05c74"),
    (('topo', 'ladder', '8', '--json'), "e04d11834b7a0a09be0c56c5cbee9b95a0d5798bd2f22fddbfb09ae9aec43b7b"),
    (('topo', 'corolla', '2'), "0dbff621951d875f20c6cffb599e4dca6f7b9c3daa4db52e9d3f9398a782f56e"),
    (('topo', 'corolla', '2', '--json'), "440f07796ae8c9bfc313918833866d7293a4a03fc57c9b16880ab7882b189e54"),
    (('topo', 'corolla', '5'), "73e859c3772dd2971b61b10e741bb56796df07194dab2553ae237fd99058493e"),
    (('topo', 'corolla', '5', '--json'), "11081a23af6dd30c0f3423a5dc9e570ce66a1444fa7d13d791353f79ee4b1918"),
    (('topo', 'corolla', '8'), "0ae8173815f112ef88b8dce121bfa7d8f4ddfcbe5d5e4fd39ddfb1a13b6a0028"),
    (('topo', 'corolla', '8', '--json'), "48db2626c8d37cff2a0ee79e76435df039eaf20e406af26228274fa0f1a6cbf5"),
    (('desc', 'conv', '1/2*2 1', '1 2'), "a70252de3add7f8c37c5096d4215e5ce259ea825c79c309937889b034027f31a"),
    (('desc', 'conv', '1/2*2 1', '1 2', '--json'), "40abd3ce7b93d509bae1266c7de2d34af177633b40924b8a7142e870493c6cb3"),
    (('desc', 'conv', '2 1 + -1*1 2', '3 1 2'), "a9fb584a79480f568026d04e1c5e4acd565d14771ad965acfbdf74d60164582c"),
    (('desc', 'conv', '2 1 + -1*1 2', '3 1 2', '--json'), "602f9cd47f0764846c0f9045364c42c41ae36f8691e7b7915b649d3eb0210e02"),
    (('desc', 'conv', '1 2', '1'), "fd877a14f5874c4b575d0b66dbf2ffc3307a281c4857c1a6b97e0576053461fa"),
    (('desc', 'conv', '1 2', '1', '--json'), "95e5e675c8b433579c026386e19f0a0595706859c37c7e5ff615628d76150d84"),
    (('binf', 'check', '--alphabet', 'a,b', '--budget', '3'), "9f35551589eb1ee7a576eae14e7e9d385bb32f0e1859be8c00073025042d6d30"),
    (('binf', 'check', '--alphabet', 'a,b', '--budget', '3', '--json'), "7c411195699239a74bc4916165f51c1d741f805384955d71e099a4561a4a7a9e"),
    (('binf', 'check', '--table', '@fl', '--budget', '4'), "f2a230b5f0d6368025fe171f04240b085e325b2d7420363e05e7ab8ab45576e8"),
    (('binf', 'check', '--table', '@fl', '--budget', '4', '--json'), "b0743fad41a4033058a9ef2230a9010c07d7ace887a230e713f93b606e889f7d"),
    (('binf', 'check', '--table', '@qs', '--budget', '3'), "f2a230b5f0d6368025fe171f04240b085e325b2d7420363e05e7ab8ab45576e8"),
    (('binf', 'check', '--table', '@qs', '--budget', '3', '--json'), "b0743fad41a4033058a9ef2230a9010c07d7ace887a230e713f93b606e889f7d"),
    (('binf', 'check', '--table', '@rich', '--budget', '4'), "e67cbce091a8fa59609315b6faf19139a8fa9879cbdd2f5ad144033c18ed788f"),
    (('binf', 'check', '--table', '@rich', '--budget', '4', '--json'), "311a3dbf3bb7fcb16519af2dc9f6c8551607a6563c54c6be37fad232b9a5a403"),
    (('binf', 'check', '--table', '@half', '--budget', '3'), "e67cbce091a8fa59609315b6faf19139a8fa9879cbdd2f5ad144033c18ed788f"),
    (('binf', 'check', '--table', '@half', '--budget', '3', '--json'), "311a3dbf3bb7fcb16519af2dc9f6c8551607a6563c54c6be37fad232b9a5a403"),
]


@pytest.mark.parametrize("argv,digest", OUTPUT_GOLDEN, ids=[" ".join(a) for a, _ in OUTPUT_GOLDEN])
def test_named_class_conv_and_report_outputs_are_byte_identical(argv, digest, table_paths, capsys):
    assert main([table_paths.get(a, a) for a in argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- the tensor and table parsers under mutation --------------------------------

FUZZ_TENSORS = ["2 + 1/2*a.b + -3*b.a.c", "a.b.a.a.b", "-5/6*b.a + a", "1", "x1.x2.x1 + -1/3*x3"]
FUZZ_TABLES = [QS_TABLE, FLALG_TABLE, RICH_TABLE, HALF_TABLE, "mode: shuffle\nalphabet: a, b, c\n"]
# the characters of both grammars, plus a few that the parsers refuse
FUZZ_CHARS = "abcx123.*+/- ,:#=>\n\t\u0663"


def mutate(rnd, text):
    """One to three random edits: delete, insert or replace a character,
    duplicate a slice, or insert a run of nines."""
    chars = list(text)
    for _ in range(rnd.randint(1, 3)):
        op = rnd.randrange(5)
        i = rnd.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == 1:
            chars.insert(i, rnd.choice(FUZZ_CHARS))
        elif op == 2 and chars:
            chars[min(i, len(chars) - 1)] = rnd.choice(FUZZ_CHARS)
        elif op == 3:
            j = rnd.randrange(len(chars) + 1)
            chars[i:i] = chars[min(i, j):max(i, j)]
        else:
            chars.insert(i, "9" * rnd.choice((2, 12, 5000)))
    return "".join(chars)


def main_exit_and_stderr(argv):
    """cli.main in process; argparse's own exit counts as a code."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.tbl"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("omega", "zeta", "binf check")),
    st.sampled_from(FUZZ_TENSORS),
    st.sampled_from((None,) + tuple(range(len(FUZZ_TABLES)))),
    st.booleans(),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_tensor_and_table_parsers_end_in_an_exit_code_promptly(
    fuzz_table_path, command, tensor, table, mutate_table, budget, rnd
):
    argv = command.split()
    if table is not None or command == "binf check":
        text = FUZZ_TABLES[0 if table is None else table]
        if mutate_table or command == "binf check":
            text = mutate(rnd, text)
        fuzz_table_path.write_text(text)
        argv += ["--table", str(fuzz_table_path)]
    if command == "binf check":
        argv += ["--budget", str(budget)]
    else:
        argv.append(mutate(rnd, tensor))
    t0 = time.monotonic()
    code, err = main_exit_and_stderr(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert time.monotonic() - t0 < 1.0, argv


# The same pins for inputs that took 13-16 s each on the enumerating route;
# the wall-clock budgets include process start.
SLOW_WORD_GOLDEN = [
    ("eulerian a.b.c.d.e.f.g", "c89e5ee0db0de75ceea48b40d4d1dffd083113444d68da2b77967e46dc6cdc7c", 2.0),
    ("eulerian a.b.c.d.e.f.g --json", "c1350041e16e24a80dfd8585473d64d85f747576efa6630f02ef06ceef510a57", 2.0),
    ("omega a.b.c.d.e.f.g.h", "c4c62d90dd7004406a5ffa98ae4555cecf8ab27aedeaabbb7ba6744f31ddbf56", 1.0),
    ("omega a.b.c.d.e.f.g.h --json", "a1fc1517dbef7f9dc2b4fda57c3163a0e9f8df8137eae8a950dced2f6a4756ab", 1.0),
    ("zeta a.b.c.d.e.f.g.h", "c4c62d90dd7004406a5ffa98ae4555cecf8ab27aedeaabbb7ba6744f31ddbf56", 1.0),
    ("zeta a.b.c.d.e.f.g.h --json", "a1fc1517dbef7f9dc2b4fda57c3163a0e9f8df8137eae8a950dced2f6a4756ab", 1.0),
]


@pytest.mark.parametrize("argv,digest,budget", SLOW_WORD_GOLDEN, ids=[a for a, _, _ in SLOW_WORD_GOLDEN])
def test_long_word_output_is_byte_identical_within_budget(argv, digest, budget):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gebra", *argv.split()], capture_output=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert elapsed < budget


# sha256 of the stdout of delta, delta2, pi, upsilon, lambda, eulerian and
# pieul run one after another on each topology (text, then --json), pinned
# from the route that scanned all n! relabelings and all Bell(n) partitions.
# Inputs: every isoclass on 1..4 points, ladders and corollas up to 6 points,
# and seeded random relabelings of 5- and 6-point quasi-orders (some not T0).
TOPO_COMMANDS = ("delta", "delta2", "pi", "upsilon", "lambda", "eulerian", "pieul")
TOPO_GOLDEN = [
    ('1', "5ae427f671dd128d314be04b747880162f83999258fa46eba1907c30e1a3df59", "e3914faa6d9191cc77e3a6424a32cecd3291d0167760768bc05dc60bfe058fc7"),
    ('2', "9ebbb3da3697a04b19c71ad46375932f9090131833c30aee3bc8ace2b907a280", "cbd23466e88091d7f77b4aca5aa34642917fa23783f2e9d5eb2c6d470258ff36"),
    ('2; 2<1', "9ed97e1e9b0dff92a5510c4437a524fcbcd85f969f439dc1150c077cad3fd8ea", "aa5d170dcf155799119376fa5b195c4eab3f49f51b2c54626cea6bbc75cbbadc"),
    ('2; 1~2', "5ceae22e443db190999e942fca9db9ca7570bcffb9f792bf9d9bebc744a79392", "1c2c9dce77e973b9eefa0792c6b7b8161fae363d80b996ec625b976a3278db1d"),
    ('3', "36c4ec4e629e49e42e709e804207aa30d35692b17ebf05ca034ae7208e5d4cbd", "300e3005ab94ed9982350bcb2da3066fd43c22d156cecd57d29d14e136667e0f"),
    ('3; 3<2', "ccc6891573a04d2ad7d0996f0e093feecb18876bf5d69b56be14e9f8efe6184c", "196833d07fb1593301fc60c63a89305cc5dae39845bf545aa2af28f62e230970"),
    ('3; 3<1, 3<2', "9219d04e0a7c510eedff7162e790c694b1198b7479883503e22ea688b1ace59f", "62826624d6273dd686bd8fa7212a86050eb4b5925cee3a714a67cfd287f80526"),
    ('3; 2~3', "d35df1d769cff3dc3e56200325f55b4dbbb98676b7e44cb7efda80b3875f5424", "eefa024ed0e6487dffb0ccf8ea3d07e8ddc84ce23923c71b5c4f493767d04ccb"),
    ('3; 2<1, 3<1', "533c860b0218a578e331c70d570f4307d0da738eddfe3a1595607b88787b2108", "048fa31b69bb0b9aa0999f5a0f77a9ed186f19b0850fc4f3b1493fdd9078c294"),
    ('3; 2<1, 3<1, 3<2', "3b2ed393c04ad4230cb83c0c83089b72839b60ff0aba340cf6ca187e1b2a89d9", "b7e4c438fa12e4f613a701b11f2cb50dc2ec8c1dde2127ec6f598dfb2e3d793b"),
    ('3; 2<1, 3<1, 2~3', "ab59449431f34c188344f9089a8d4de0f4d2ad56c0dfb9b2ebd4a4eff88e2b7c", "dd15868ba46c090985333e5f8ab348b17218f70091f68c58e502639372430be5"),
    ('3; 2<1, 1~3, 2<3', "309b259d9a42e1e1f32fb0121ac7add831d38f9b4f7efbe5c1350d1f60831845", "1c3933bc9e669943c3d35c770a170deb7bdeb43a17bb840ec2e429bbe231a3d3"),
    ('3; 1~2, 1~3, 2~3', "6ab8644cd27d16b997848e97504792a3d382ae928c9f782d8ad8862e69b5ad1a", "78fb6b42935635770ada21f49fe97b4d9f106ad5fae3da1d06133297d57740c1"),
    ('4', "552f20bc253278975934c69c8a6c544ebb7e198cf3bc60ad60d153f12dc18f9c", "b50a6342babffa24a7bced70b0af4ef6ce444cdc21b6da4a193095404a5964e3"),
    ('4; 4<3', "48bacd024d651c1d2989225c5d3a8146d301543b44ab5bfd8315fc2dfedecc16", "38fe272cb431d83604e997ceafdc9d024a81c43c5b917f36d7481b824c3338b2"),
    ('4; 4<2, 4<3', "78036a1084870b684744c5038c0042869882f0c8c8b75d60221c16f981c9811f", "52d74e7c74873dd8dc8aad82c94af09d2001e1a1ff492e1d9077fdb438ffd85c"),
    ('4; 4<1, 4<2, 4<3', "7b4fd87bdd609cdd4d066499683e07517c84919a4ad9bf30c3520ec62ae605e2", "6f93b721ff8e8e8fe189335cc0c14c0e1c1f33579f767be8752469f18cb46bb8"),
    ('4; 3~4', "24c4738f73c95e0ee746e463f08eb32b31754aa7dcb5775f745d9fed31f4ca1b", "7367ca13a80cd2e7163ae581defbe1b3ddba0a263b2e44e5905d76e80f8af1d7"),
    ('4; 3<2, 4<2', "da819f23bb981a23ffda716cffe03496970da4a519cdcdfe132c4fe530e76edc", "b1cebf89516671213705bd2d91443e839656f6c78fefa02778f810cf8ec04103"),
    ('4; 3<2, 4<2, 4<3', "5b7b8328da37116e6f49b2f0c4273d5823797419a8d87ca6b782df0c8128c35f", "97149bf2cd13b80d20c7907f3ab4209a4a8d214bb23b80afa59637c21709d6fc"),
    ('4; 4<1, 3<2', "7b1ec38608adf97e39cc3bc5abb8e1dde36600af4a45666f354cb19dcc88ff4c", "370002bd96ebe79bf3f89d3a046484732047324b821ae8a6e6ecc44cec07b7b6"),
    ('4; 4<1, 3<2, 4<2', "964f04fef7a8ca8b690aa77058ca35230b53eef882488e783451e83b2ea75823", "88f40eb6d0c6ecddb857186a90f8c1e6d13018a3459333faf963473c06fffa04"),
    ('4; 4<1, 3<2, 4<2, 4<3', "005c973047c75b92ccf8b05c716150466992e63c75463ab60f57fc5bdb1c1cc0", "70fe4bf93c59561c23f440ceb811fdae9aef56641d387f159124b2179ca9b669"),
    ('4; 3<2, 4<2, 3~4', "2636ec1a4d0a27dfc5cc78cdc1d170c6d18f871db3e7cd03a5de40b518a6dced", "9a5d38ba41a1473e13e85dfbf715307bca8d0ddc73f93a79d25d1d116280db3c"),
    ('4; 3<1, 4<1, 3<2, 4<2', "9b982bf344d3af4f469dbaaa8a2e10025ae5abf55f3156d23fd7db3e9bd2a73d", "d17baa3ef4ccc9c3a0b19f2858b36cb788057b555b523c3aa7ca2011f8016490"),
    ('4; 3<1, 4<1, 3<2, 4<2, 4<3', "e6b20aceaac7ce67bf5d49991c5c456eaa05a3b1c4cb7b5e283b545180844a94", "87c659b4e94c4dcc3609a2f0529de06091f4a9de9cd50e54138aab00b8410a00"),
    ('4; 3<1, 4<1, 3<2, 4<2, 3~4', "13e313adeb73d01a1952f3bb8e480d33af51d8f4b86d37db334c3a9f9ced6b7c", "5a4d66b250c6bf248690676fedbb27373d6213df8dacc0ef6b57e0add927c687"),
    ('4; 3<2, 2~4, 3<4', "94b60db1b9ba3c3958e827e71ffae70d6398f31c68dd9c266f7a73420498dd16", "8804c7298171a89109c9c41854f7a0e2ea61091fb08415845fc966926e7322ce"),
    ('4; 3<1, 2~4', "f7ad06859c19865ce1f2944568698cdd2e9f4157847a6765d1a50724e104cf7c", "b96edc688ea985dd7d1f15716154f4f884b9be6c04fa20c2ca42f7f5cad2fe29"),
    ('4; 3<1, 3<2, 2~4, 3<4', "6a5cdd98b5671b029be03113b50d3eac6a193fba2dce3919e2e1bb32de9fcc81", "3a844ae0ebe7710540f840139f935f1ca4b9529c541472fa9e9708122609977f"),
    ('4; 2~3, 2~4, 3~4', "96c30a66d896fed1f4e98751bc294f3223b7fea1c761bb62a0f8d84dac7c8aaf", "d7b0e6f786e3a9fa827f65977382fd459f708925bb58749e1ab8ec2553a481fd"),
    ('4; 2<1, 3<1, 4<1', "586806995d09ab372177f43397f4f84dfa7e09304b5626addac8045e40b2ab5b", "a4b1793270209b6a5b917e567e2b2ad18ff40c7e267446946daecb52d7369622"),
    ('4; 2<1, 3<1, 4<1, 4<3', "9ef6b9a79c2015f9c02b4f14078810dad326a0da5ff1c5e21bdc7ba0b85ee8cf", "5ba0934d9e359da3d428b2302ad377a409ae1a31a37fd703372b10919e2db863"),
    ('4; 2<1, 3<1, 4<1, 4<2, 4<3', "a394a9c79e728376d773fa43d471601837090f7c24c503c57219b18cd96f9e99", "2ac50b73c88e8fc911eb1660bf3b8d93aa1d178127085917e3dbfd269f85a7f9"),
    ('4; 2<1, 3<1, 4<1, 3~4', "9380220d52e3a717dced8a3890ae4b4fd152abd541aa3082cb607fc9ac76cd5f", "b920f809dc627a67b396639bf0023d872da832d980441471dd8dda2a951eb3d4"),
    ('4; 2<1, 3<1, 4<1, 3<2, 4<2', "bf7498ddc515f26166488e84cc568dfa51bbcf529473d0258fb81a7062cc7dd5", "9dc19cfc4056a3b74f0be556d06e2c54afe2c60d3414ad321a8d72bd4a0830fa"),
    ('4; 2<1, 3<1, 4<1, 3<2, 4<2, 4<3', "786c19a589e8f6028e43dc3e44fc07c23e62533cf901c22fc98791e66c2fbc5d", "1427650bfbce6c3c7c473122345a9bc204c1d149221ea54a1ad12dda5a6a3f33"),
    ('4; 2<1, 3<1, 4<1, 3<2, 4<2, 3~4', "a5d59b919ea0e602585fb36d7603ffd12db7590fd33b8585a319b890009d241e", "f929dceff7bcfdd5772d6d1517b554869bb74ee574b9537864baae7a410ecf8e"),
    ('4; 2<1, 3<1, 4<1, 3<2, 2~4, 3<4', "bbafd477b953b8e40d524f18472f849d3ef093c9631b963bf1a7613a3bce81d3", "e5d1b247928d340b6fa07a2a64803d2f0b46d4ad150b12b4de99d443ad19b7ab"),
    ('4; 2<1, 3<1, 4<1, 2~3, 2~4, 3~4', "05881f220451a52c76a50b08449ff5c3907bb36abc37b3eda837f3d7962f7a5a", "14d3b0884b1d137cac295fdaedb87582eb2c633e1a4c6793fb4dbea71cc015a9"),
    ('4; 1~4, 2~3', "a35ee3aca327da5283938edfb874cc462b33eaef8c639f6ff1d47265c8eb49bc", "4034eada18f3d3e0a52335a40ff6e7362cd7330d112f9ce49ccdaee49c86a33f"),
    ('4; 2<1, 3<1, 1~4, 2<4, 3<4', "0082a9db5005a4b8ac11e3f553f37cf4d6ab6caf77cb9186c2aa89b823f27d76", "1ee7d29ab8668133a88cc65a825fc182cc1c6b5f1d9fa2311a4a520f70cb4fe4"),
    ('4; 2<1, 3<1, 1~4, 3<2, 2<4, 3<4', "ec13b0d1aade232cd9f652b54ca9ade0d725c97bff7f75ae3471451063c51606", "1fc9b590c950ecb3329c86219d99b49a6af29acf6bf61a151e93fbf876056bc6"),
    ('4; 2<1, 3<1, 1~4, 2~3, 2<4, 3<4', "f5aeb451c75fc2bf0ffcf85f28d8c3057448e00b19324d1a99fd325423d1dcc2", "5477e22aa4a653795b85df3e072100f4613a3eefd72fae4c2b149fd910b9b96d"),
    ('4; 2<1, 1~3, 1~4, 2<3, 2<4, 3~4', "03f95e70b289547f9ecadad984589d70dd2201f676eea5e1adfc320aed8db0f2", "7ec570c36a98d54416db47051d0cea46095c2c2ebb6fb45831e8ef6022d494e5"),
    ('4; 1~2, 1~3, 1~4, 2~3, 2~4, 3~4', "7fe3a436018bef52e514dc2104517b1fd98fbdd970395d5e20f84dabc1f78861", "ae0d84903c745066b647c7a2b37b7b7f2bcf5cf8270c27d71cb121c3ef2d4214"),
    ('5; 2<1, 3<1, 4<1, 5<1, 3<2, 4<2, 5<2, 4<3, 5<3, 5<4', "ee1e9a59573b45750095511562ca5ad3499066adaf6cb26a3b4b31f14c06e4ed", "9191521562a6ce1dfd1041cbb17b15e59fbf7c4ae1edcd8ca06e47f7865431e9"),
    ('6; 2<1, 3<1, 4<1, 5<1, 6<1, 3<2, 4<2, 5<2, 6<2, 4<3, 5<3, 6<3, 5<4, 6<4, 6<5', "8a750250970db109e27bb1e32da50530e271297d734920c926ef7a02635aa488", "8e77350427659aadb5290766369d93b8cb291b7b0920c7c82ebb323dea81c775"),
    ('5; 5<1, 5<2, 5<3, 5<4', "bb45931d8848b097951edea4c174b785f0fef2fcc464df4f34637a5b4a05c53e", "367a2f8963991c4c01a7578b8ff5ac0ce4246fb17d484cd46584dc69a63ae546"),
    ('6; 6<1, 6<2, 6<3, 6<4, 6<5', "692fdc85ed3cc490c8d2008e6a9fcc2f0a937f387113fd3735e235cfe1854139", "83474ee0a38f67211ad1d095bedd13eda1cb48821fc455866a70bdc1adb66ee7"),
    ('5; 5<4, 3<4, 2<3, 2<1, 3<1', "54ebd2645d7b59a4c641ec932ac6f2785cb7494f9aa2086f432a55821c376ef8", "6dd3aae456f9eaf8dff096b59a7f7f1ed3960ce4ae5139515f8d2a8dfa80e361"),
    ('5; 3<1, 5<1, 1~4, 2<1, 5~4, 4<2', "6833893ee37c4e852d29030e3ae136ec3a784e3a5c0b4467d853d9eb5512bbc8", "8c3007d702e9ade4bb0d32f2eea9753667f9ddc244bfc0c5904a97f676ee1d95"),
    ('5; 5<2, 2<1, 5<4, 1<5, 5<3, 1<4, 3<1', "4fabccac779f0dde8c6768720920421c43113dd362e02110284337307f8eb9a6", "c40340721d1e2d3a8f9640bfb206a22def5fddc03f995f66a67b026468f9619c"),
    ('5; 5~2, 3<5, 5<4, 2~1, 4<3', "8c4e1a966f671039e21cadc67d4f61810329eba15999cc0dcf2fe4014c71bf10", "62f2ad9eb9f8137123683cedde001c2253121f0ff8e7a5be82b02bc754e3d54f"),
    ('6; 5<3, 1<3, 4<3, 6<5, 5<4, 1<6, 2<1, 4<6', "8f1eba0541b7c4e5479316b7f0cc9d8e90d7e804a1340c3bf3ebfbb5d91811c5", "147b3a05a9fb6fe608611083c442c303bcc5e910a8277881db52a9e54ab3530e"),
    ('6; 1~6, 1~4, 1~3, 5~2', "4f55be66040b7f693a69c8c8e0151d2e88be4dbdbd6fdb15db91d52c99987459", "35946b3e690e5a8c334b6bf6997228b79dfcc76e4c131e9d32cfd52802743750"),
    ('6; 2<5, 6<2, 6<3, 5<4, 6<4', "65f63850307132e1b013703d2222cb5c7eea4d1f82bc7199bc00ce86e7c06875", "4f956481020a569a5a291e14ce93c50210d94a2fc64368588b7e9f05b21eff77"),
    ('6; 6<2, 3~4', "e7bbe264a9a6ec69cb1aacc51a72edaca65f324e80bcffd4751fd0ac335c457d", "dff2095e9d0bca8a33e9af4360a6dbc72c079bd6dd7944d8463ac8ba75c08390"),
]


@pytest.mark.parametrize("text,digest,json_digest", TOPO_GOLDEN, ids=[t for t, _, _ in TOPO_GOLDEN])
def test_topo_output_is_byte_identical(text, digest, json_digest, capsys):
    from gebra.cli import main

    for flags, want in (([], digest), (["--json"], json_digest)):
        for cmd in TOPO_COMMANDS:
            assert main(["topo", cmd, text, *flags]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == want


# topo delta2 on the 7-chain took 6-7 s on the exhaustive route; the budget
# includes process start.
L7_TEXT = "7; " + ", ".join(f"{j}<{i}" for i in range(1, 8) for j in range(i + 1, 8))
SLOW_TOPO_GOLDEN = [
    ((), "7002eaa9b3d58cd4e0ab05a3a2c976dd906337fbba94e26e1793096b9deed5f5"),
    (("--json",), "3717e261510801e6b2dd2dd9459520322a4a3268980c9e52a67efe40f6eb6d77"),
]


@pytest.mark.parametrize("flags,digest", SLOW_TOPO_GOLDEN, ids=["text", "json"])
def test_l7_delta2_is_byte_identical_within_1s(flags, digest):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gebra", "topo", "delta2", L7_TEXT, *flags],
                          capture_output=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert elapsed < 1.0


# sha256 of the stdout of topo pi and topo pieul (text, then --json) on 7- and
# 8-point inputs.  The pi digests were pinned from the route that summed over
# every chain of open sets (up to 28 s a command); the 7- and 8-point pieul
# digests when pieul was first admitted past 6 points, from the routes that
# admitted it (many inputs are products, which pieul takes to 0).  Inputs: disc8,
# l8, c8, "8; 1<2", seeded random relabeled 7- and 8-point quasi-orders (some
# not T0), and a few 6- and 7-point ones.
PI_RUNS = (("pi", ()), ("pi", ("--json",)), ("pieul", ()), ("pieul", ("--json",)))
PI_GOLDEN = [
    ('8', ('2ba1edd1b0d50c5c8d316053cac5b028ce1235953a135c0744e89ed72be38cb1', 'c617c3bc5d9a1cd7e8d6012822f1d076e80b637317618cc84bbaa6d0b3cf4516', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('8; 2<1, 3<1, 4<1, 5<1, 6<1, 7<1, 8<1, 3<2, 4<2, 5<2, 6<2, 7<2, 8<2, 4<3, 5<3, 6<3, 7<3, 8<3, 5<4, 6<4, 7<4, 8<4, 6<5, 7<5, 8<5, 7<6, 8<6, 8<7', ('9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5', '8cca47c0acfd1cb25f21a43626574b7a590a3a27586e8b2771f6ef32cca0fccd', '2bb005a5f0ee5628f34ba447ab63366a27fc19c0c6b4bfe2ee54e218ccd466d2')),
    ('8; 1<2, 1<3, 1<4, 1<5, 1<6, 1<7, 1<8', ('9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5', '67fd4f7fe6baf2763ee3fa01dfa5b174059fa846bf9df4283e2b79bd8d5dc27b', '6d685101321991ad461526a19a5c6b52bab1c0a4e6054fc9a43445c278da2989')),
    ('8; 1<2', ('5b31cb8513851787e5ab52381f91bd07bac1b887343fdaa6e01a43c61e77fe29', '5eca0e5f963956995ff3e36d39ddec958e272b427f264892c442b25cb3a4f0bb', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1<6, 5<1, 5<6', ('28de803bd1c8bb6a66c0b35384dc1c9f23ba6da25da8076a6185fad008dc7ecb', '223e7fc7dab284fa84433074824d40b7a7b3483672e288e18445253bd8597d27', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1<4, 2<3, 2<6, 3<2, 3<5, 4<2, 4<5, 5<6, 6<1', ('2370260f243fbec7503df6b158b284cb2a8a95a08a81a3e99ff289f924dd3d96', '644b24730067353e332e80891865e56082c25e2ee937f0d45c2cadd366bcfca2', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1<7, 2<3, 2<6, 2<7, 3<1, 3<5, 4<1, 4<6, 5<2, 5<4, 5<7, 6<7, 7<5, 7<6', ('a0174901c43bf3b4f630eb84a1bef6970f2c6e0dd5b8f06edbfa3062bb18c0ee', '9ef979c5a2641f8bdda60651c8767e310152e5eb381aef2cda95374971fa9966', 'a0174901c43bf3b4f630eb84a1bef6970f2c6e0dd5b8f06edbfa3062bb18c0ee', '9ef979c5a2641f8bdda60651c8767e310152e5eb381aef2cda95374971fa9966')),
    ('8; 1<3, 1<4, 2<4, 8<2', ('700bdd850fb07c1135e12ac81fcd045faeab03d64edad693e48288df4502dc5e', '3c555b234fcf3b8d5d90f7583972feff480bf985eded854ca9ac0d98eb0036f2', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('8; 1<7, 1<8, 2<5, 2<8, 3<7, 4<1, 4<6, 4<7, 5<1', ('04d6df11e204bbef82ce42def9ced515e99735434d73e80f73c41ce7c9c01f6f', 'b4f9ef9d809c369d0b8357f2ae0c0bb1eca424ab2d4f89908ff5b575562aa01b', '35b69104c97e405416ec5c95f1f2771c8e93ca59497cb494b80e6ded215970f7', '474a1350a4e869fb903228adbf830b98fa14975b4445063d50ca6b8e3b2bbbbf')),
    ('8; 1<6, 2<1, 2<3, 2<5, 2<7, 3<1, 3<5, 3<8, 4<5, 4<7, 4<8, 5<2, 6<1, 6<3, 6<8, 7<2, 8<2, 8<4, 8<6', ('cade391e19d17a5f3cd0c9417f8cd386899fbc39bb86cb6ecbdabe1a5041d462', '65a7da2fbfa020c7ff29cf711428fee09e021c1d7f8e91c9d2e3a9d26b8f65f9', 'cade391e19d17a5f3cd0c9417f8cd386899fbc39bb86cb6ecbdabe1a5041d462', '65a7da2fbfa020c7ff29cf711428fee09e021c1d7f8e91c9d2e3a9d26b8f65f9')),
    ('7', ('05d203ac2e76aaa32532f59fdcc373570dbf9166550e0ca338956f726ed72858', 'e9bbe60bf6190fc8cc48819c259924c5092d22760d20321809b4aaaecef033db', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1<2', ('2e86e0e61bc7cb6f5c536183c0f313b8b6a0b2c8031a00dcf88418d0cdc4c8d2', '49da45b4bcf8470f42e1294b06bdcf5426dcc153ffef12072db7d4a43d2c68d7', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1<2, 1<3, 2<4, 3<4', ('a162854968bb07d059d070432026588e7d2aa34e6c1955864e8a2b0d57828880', 'aa660118f1062e30aa168ec56f66060302cda10652a6c459599a33ad88d590ec', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('7; 1~2, 3<4, 3<5, 6<7', ('a923980df17cfc91adbd51107fb1dd79a8dd07d5f8cb1122008abfea01e184bc', '74b6c857342519f7635a2f9009dcdb10a5c28aaa7504fa92c82066440a75b93e', '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5')),
    ('6; 1<2, 1<3, 2<4, 3<4, 4<5, 4<6', ('9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5', 'bbe487f476ee3877451dfc79cdfe12bc91220afdc3742c1e3aa592831c45c0e3', '9a4fa1a51bbce7ff76170c2e516f391a8d8d1725f7af38e29a112ce4d64324b0')),
    ('6; 1~2, 2<3, 2<4, 5<4, 5<6', ('dd3ebd714e7c0380f07e1935f45600de8ccbcb00dddcb8b315e20de68585cd98', '1d883baf2e51af904017f9d7cf93c9dcdf9924f3d3cb0c929bd7fa02d6ede921', '95e4ba794b1321f9d4fba4555806c1785b5086f63628fdbe910dd83b297a2125', '99c0eccc75c19d82f6f1cdf9319e4521154f543c1cb406f7e037b2bc2adac84d')),
]


@pytest.mark.parametrize("text,digests", PI_GOLDEN, ids=[t for t, _ in PI_GOLDEN])
def test_pi_and_pieul_up_to_8_points_are_byte_identical(text, digests, capsys):
    for (cmd, flags), want in zip(PI_RUNS, digests):
        code = main(["topo", cmd, text, *flags])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want


# topo pi at CANON_BOUND = 8 on the most open sets (disc8) and the most with
# one relation; the slowest input known is in the CANON_BOUND row of
# tests/test_bounds.py.  The budget includes process start.
@pytest.mark.parametrize("text", ["8", "8; 1<2"])
def test_pi_at_the_canonical_bound_finishes_within_2s(text):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gebra", "topo", "pi", text], capture_output=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == dict(PI_GOLDEN)[text][0]
    assert elapsed < 2.0


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
    ):
        code, out, err = run(*argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
    for cmd in ("eulerian", "pieul", "delta2"):
        assert run("topo", cmd, "9; 1<2") == (3, "", "error: size bound: canonical forms stop at n = 8\n")
    # every topology command admits CANON_BOUND points; "7; 1<2" is a product
    assert run("topo", "eulerian", "7; 1<2") == (0, "0\n", "")


def _timed_run(*argv):
    t0 = time.monotonic()
    code, out, err = run(*argv)
    return code, out, err, time.monotonic() - t0


@pytest.mark.parametrize("argv", [
    ("eulerian", "a.b.c.d.e.f.g.h.i"),
    ("varpi", "a.b.c.d.e.f.g.h.i"),
    ("omega", "a.b.c.d.e.f.g.h.i"),
    ("zeta", "a + a.b.c.d.e.f.g.h.i"),
    ("binf", "prod", "a.b.c.d.e", "a.b.c.d"),
    ("eulerian", "--table", "@fl", "a.a.a.a.a.a.a.a.a"),
    ("shuffle", "a.b.c.d.e", "f.g.h.i"),
    ("shuffle", "a.b.c.d.e.f.g.h.i.j.k.l", "m.n.o.p.q.r.s.t.u.v.w.x"),
    ("qshuffle", "--table", "@qs", "x1.x2.x3.x1.x2", "x3.x1.x2.x3"),
    ("hoffman", "exp", "--table", "@qs", "x1.x1.x1.x1.x1.x1.x1.x1.x1"),
], ids=" ".join)
def test_word_past_the_bound_exits_3_within_1s(argv, table_paths):
    code, out, err, elapsed = _timed_run(*[table_paths.get(a, a) for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: size bound")
    assert elapsed < 1.0


def test_worst_word_at_the_bound_finishes_within_10s(table_paths):
    # eight distinct letters in shuffle mode: every one of the 8! orderings
    # carries a coefficient (2.5-2.8 s on a 2-vCPU VM, process start included)
    code, out, err, elapsed = _timed_run("eulerian", "a.b.c.d.e.f.g.h")
    assert code == 0, err
    assert out.count(" + ") + 1 == 40320
    assert elapsed < 10.0
    for argv in (("binf", "prod", "--table", "@qs", "x1.x2.x3.x1", "x2.x3.x1.x2"),
                 ("eulerian", "--table", "@qs", "x1.x2.x3.x1.x2.x3.x1.x2"),
                 ("omega", "--table", "@qs", "x1.x2.x3.x1.x2.x3.x1.x2"),
                 ("zeta", "--table", "@qs", "x1.x2.x3.x1.x2.x3.x1.x2")):
        code, out, err, elapsed = _timed_run(*[table_paths.get(a, a) for a in argv])
        assert code == 0, err
        assert elapsed < 10.0


@pytest.mark.parametrize("argv", [
    ("--table", "@dense", "--budget", "8"),
    ("--table", "@qs", "--budget", "6"),
    ("--table", "@qs", "--budget", "1000000"),
    ("--alphabet", "a", "--budget", "9"),
    ("--alphabet", ",".join(f"v{i}" for i in range(100)), "--budget", "2"),
], ids=["dense 8", "qs 6", "qs 1000000", "one letter 9", "100 letters 2"])
def test_axiom_check_past_the_bound_exits_3_within_1s(argv, table_paths, dense_table_path):
    paths = dict(table_paths, **{"@dense": dense_table_path})
    code, out, err, elapsed = _timed_run("binf", "check", *[paths.get(a, a) for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: size bound")
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("topo", "lambda", "1000000"),
    ("topo", "delta2", "1000000; 1<2"),
    ("topo", "ladder", "1000000"),
    ("topo", "corolla", "1000000"),
], ids=" ".join)
def test_huge_topology_exits_3_within_1s(argv):
    code, out, err, elapsed = _timed_run(*argv)
    assert code == 3
    assert out == ""
    assert err == "error: size bound: canonical forms stop at n = 8\n"
    assert elapsed < 1.0


def test_malformed_input_exit_code():
    for argv in (
        ("topo", "lambda", "2; 1*2"),
        ("shuffle", "a..b", "a"),
        ("desc", "conv", "1 3", "1"),
        ("topo", "upsilon", "0"),
        ("hoffman", "log", "--alphabet", "a,b", "a.b"),
        ("topo", "lambda", "\u0663; \u0661<\u0662"),
        ("topo", "lambda", "1_0"),
        ("desc", "conv", "\u0662 \u0661", "1"),
        ("omega", "--alphabet", "a:\u0662,b", "a.b"),
    ):
        code, out, err = run(*argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("expr", ["1e-3*a.b", "1E3*a", "1_000*a.b", "1_000", "\u0663*a.b"])
def test_exponent_underscore_and_non_ascii_scalars_exit_2(expr):
    code, out, err = run("omega", "--alphabet", "a,b", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad scalar")


@pytest.mark.parametrize(
    "expr, cause",
    [
        ("a.c", "error: unknown letter 'c'"),
        ("1.5", "error: bad scalar '1.5': decimal notation not accepted"),
    ],
)
def test_bare_term_reports_its_own_parse_error(expr, cause):
    code, out, err = run("omega", "--alphabet", "a,b", expr)
    assert (code, out) == (2, "")
    assert err.strip() == cause


def test_unknown_subcommand_exits_2():
    code, out, err = run("frobnicate")
    assert code == 2
    assert out == ""
    assert err != ""


def test_no_arguments_exits_2():
    code, out, err = run()
    assert code == 2


# -- help, usage errors, and the modules each command executes ------------------

EMPTY_SHA = hashlib.sha256(b"").hexdigest()
# argparse wraps help to the terminal width, so these runs fix it at 80 columns
FIXED_WIDTH_ENV = dict(os.environ, COLUMNS="80", LINES="24")

# (argv, exit code, sha256 of stdout, sha256 of stderr), pinned from the
# parser that built every subcommand up front
USAGE_GOLDEN = [
    (("-h",), 0, "e5c8dcbba2de96899a0c809b515e898be9c444c4bafe1c31b1d6a0da36889847", EMPTY_SHA),
    (("desc", "-h"), 0, "486b7c82cee0c54d428662e9b66055705fcbd79ba7249201c761624df33d4393", EMPTY_SHA),
    (("topo", "-h"), 0, "a06459d677e85012abc0867f11f5646f28ed2834ba9157af267a7352e75d594e", EMPTY_SHA),
    (("binf", "-h"), 0, "b741523a3cc581964200366012fffa142d3137052a8691ce400b0346a8fb3602", EMPTY_SHA),
    (("binf", "check", "-h"), 0, "d6e6a269e4672e231f0d5f64005bf16d24c751908e8822b54621b1f4ac61e5b1", EMPTY_SHA),
    (("eulerian", "-h"), 0, "60168f370e3b17fdd669fc7a74251f81309dbaf217923f9f94c0f776694015e1", EMPTY_SHA),
    ((), 2, EMPTY_SHA, "eb18f4602703f1d9d0aa31c1874f6ea3cb5e9a8443942bad95ac460e85657c9d"),
    (("frobnicate",), 2, EMPTY_SHA, "bd3b54e7542233d9a2cadff34fa317597273d1e338f0730ea3ff6b092f4b821b"),
    (("desc",), 2, EMPTY_SHA, "c6a8ade1112cdfa90c8a997b73468729da9701811c8e8ceb02d350001447c68f"),
    (("desc", "frob", "3"), 2, EMPTY_SHA, "28be6a28dedf477535af15458dc5988056c85dff83165b36c8282aac73b202a2"),
    (("eulerian", "--mode", "bogus", "a"), 2, EMPTY_SHA,
     "e1902db67bd35ca89de3bf25950255c2e5d2f7568dc7dac667e08e5eff361fd3"),
    (("desc", "solomon", "\u0663"), 2, EMPTY_SHA,
     "7564e48dc3d0510810f0e6e1360cb1183f02ba944d5e252d7d2bbbd4aebcf507"),
]


@pytest.mark.parametrize("argv,code,out_digest,err_digest", USAGE_GOLDEN,
                         ids=[" ".join(a) or "(none)" for a, _, _, _ in USAGE_GOLDEN])
def test_help_and_usage_errors_are_byte_identical(argv, code, out_digest, err_digest):
    proc = subprocess.run([sys.executable, "-m", "gebra", *argv], capture_output=True,
                          env=FIXED_WIDTH_ENV)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == out_digest
    assert hashlib.sha256(proc.stderr).hexdigest() == err_digest


# Runs `python -m gebra ARGV...` with an audit hook that records the gebra
# module bodies executed, and writes their names to LOG (the first argument).
# A lazily loaded layer executes on first attribute access, which
# `-X importtime` does not report; the "exec" audit event does.
CLOSURE_SCRIPT = """
import os, runpy, sys
ran = set()
def hook(event, args):
    if event == "exec":
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "gebra":
            ran.add(os.path.basename(path)[:-3])
sys.addaudithook(hook)
log, sys.argv = sys.argv[1], ["gebra", *sys.argv[2:]]
try:
    runpy.run_module("gebra", run_name="__main__", alter_sys=True)
finally:
    with open(log, "w") as fh:
        fh.write(" ".join(sorted(ran - {"__init__", "__main__"})))
"""

WORD_LAYERS = "binfty cli exactlin words"
IDEM_LAYERS = "binfty cli exactlin idem words"
DESC_LAYERS = "cli descent exactlin"
TOPO_LAYERS = "cli exactlin topo"
# one cold run per top-level command, and per desc and topo leaf:
# (argv, the layers it executes, sha256 of stdout)
COMMAND_SMOKE = [
    (("shuffle", "a.b", "c"), WORD_LAYERS,
     "956a812741e125beca271cfbca5539a4493dd9cfc46e321183fed5dc094fca93"),
    (("qshuffle", "--table", "@qs", "x1.x2", "x1"), WORD_LAYERS,
     "6ed75ec0a05eff90a8ef421bbbfc745e14801dd9d39a61f4dd9fa2f16067f960"),
    (("binf", "prod", "--alphabet", "a,b", "a.b", "b"), WORD_LAYERS,
     "c2f13b7c7f1a85d3c534cfb9256a474e2f0e7f2c4678255ef96da99f105de8ce"),
    (("eulerian", "a.b.a"), IDEM_LAYERS,
     "a3b39c40812703d70b60538ec8bdecb91d389689b331995237871e70d7ab5c52"),
    (("varpi", "--table", "@qs", "x1.x2"), IDEM_LAYERS,
     "280f537d8840a30ec7f71a12c402f4856fb23959d75276803cc9d632509a7f43"),
    (("hoffman", "exp", "--table", "@qs", "x1.x2"), IDEM_LAYERS,
     "fb4f19e7e119082007a06cbc0c486c3d520b0e2617f5888595ef43b5af1301b5"),
    (("omega", "a.b + b"), IDEM_LAYERS,
     "ecfb5603dc13599ea3dd2fc06210a79be1b27c1e2e95d088fc501e0f2dc39f9b"),
    (("zeta", "a.b.c"), IDEM_LAYERS,
     "5509d18a8093bf49f4814cb919b67420450a64de047d36299f597fc6055ff462"),
    (("desc", "dynkin", "4"), DESC_LAYERS,
     "40c934641c29f4a217d5b72c558ec228fee5071696f73d474650ee59d915198d"),
    (("desc", "solomon", "4"), DESC_LAYERS,
     "7128d671b649ddb1e18e0729fc3b786e97051620ee7aabeff7ce50305f34533b"),
    (("desc", "conv", "1 2", "2 1"), DESC_LAYERS,
     "24b99c8eadcd98f1bff83648a27bc0208d1559940e21d3fbf9893083b0ac14a8"),
    (("desc", "check", "4"), DESC_LAYERS,
     "e63e47ac8767a8ceb8dd5371859ae189d08b082ad24ca3b8fa1e2b59e7f306f1"),
    (("topo", "pi", "3; 1<2"), TOPO_LAYERS,
     "92fb43fc9c03b860e53b6aebd6e658697f74359e4a9d8c29f78ec556a52e04df"),
    (("topo", "delta", "3; 1<2"), TOPO_LAYERS,
     "d933cf1e0b4ad4820259a54ec28d5de770cd51e67ff6312647b3248364cc661d"),
    (("topo", "delta2", "3; 1<2"), TOPO_LAYERS,
     "0e42cc4ba36ac1ad2f412bc3cc9f20cf775ed85cac1c859fcf9b6e5d6d1ce352"),
    (("topo", "upsilon", "3; 1<3, 2<3"), TOPO_LAYERS,
     "fb72cc55190f70899cb7b5df7ac910b59f0aab2980c0c7e4f56fcba8a1aef605"),
    (("topo", "lambda", "3; 1<3, 2<3"), TOPO_LAYERS,
     "fe461f5bac3c62638a6ca177a19075d65731db94d0e1b93d24af60ab2d9fbb3a"),
    (("topo", "eulerian", "3; 1<3, 2<3"), TOPO_LAYERS,
     "bc13763c95d1797963a11214f6575bdd0b0aec4fed0721657d5ca5867a56ce4d"),
    (("topo", "pieul", "3; 1<3, 2<3"), TOPO_LAYERS,
     "f649053c4bc2d3025185bdf4218867c892ce9c8cef718162af30f22fe968a98e"),
    (("topo", "ladder", "4"), TOPO_LAYERS,
     "fcca8e63e6e9639635aa234b52f8a64213aec040a97bf271f5c483d61f2256a1"),
    (("topo", "corolla", "4"), TOPO_LAYERS,
     "cddd9e4e13050db6217a92a837506b63c1d78a8f63eb1cee320aa7e495c4f233"),
]


@pytest.mark.parametrize("argv,layers,digest", COMMAND_SMOKE,
                         ids=[" ".join(a) for a, _, _ in COMMAND_SMOKE])
def test_each_command_executes_only_its_layers(argv, layers, digest, table_paths, tmp_path):
    log = tmp_path / "executed.txt"
    proc = subprocess.run(
        [sys.executable, "-c", CLOSURE_SCRIPT, str(log), *[table_paths.get(a, a) for a in argv]],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert log.read_text() == layers


LAYERS = ("exactlin", "words", "binfty", "idem", "descent", "topo")


def test_importing_the_cli_registers_every_layer():
    # what perfbench/tracer.py relies on: after `import gebra.cli` every layer
    # is in sys.modules, and reading an attribute executes it
    script = f"""
import sys
import gebra.cli
for name in {LAYERS!r}:
    module = sys.modules["gebra." + name]
    assert getattr(__import__("gebra"), name) is module
for name, attr in (("binfty", "induced_product"), ("idem", "varpi"),
                   ("descent", "DescElem"), ("topo", "QuasiOrderClass")):
    module = sys.modules["gebra." + name]
    assert callable(getattr(module, attr))
    assert attr in vars(module)
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


# -- every leaf subcommand: pinned outputs, and a closed stdout ------------------


def _leaves(parser, path):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name, child in subs[0].choices.items() for leaf in _leaves(child, path + (name,))]


# every leaf subcommand as its path of names, walked from the parser of each command
LEAVES = [
    leaf
    for name in _COMMANDS
    for action in build_parser([name])._actions if isinstance(action, argparse._SubParsersAction)
    for leaf in _leaves(action.choices[name], (name,))
]


def pinned_runs():
    """The argv of every run whose stdout a table above pins by digest."""
    runs = [a.split() for a, _ in DESC_GOLDEN] + [a.split() for a, _, _ in SLOW_WORD_GOLDEN]
    runs += [list(a) for a, _ in WORD_GOLDEN + OUTPUT_GOLDEN] + [list(a) for a, _, _ in COMMAND_SMOKE]
    runs += [["topo", cmd, text, *flags] for text, _, _ in TOPO_GOLDEN
             for cmd in TOPO_COMMANDS for flags in ([], ["--json"])]
    runs += [["topo", "delta2", L7_TEXT, *flags] for flags, _ in SLOW_TOPO_GOLDEN]
    runs += [["topo", cmd, text, *flags] for text, _ in PI_GOLDEN for cmd, flags in PI_RUNS]
    return runs


def test_every_leaf_subcommand_has_a_pinned_text_and_json_output():
    pinned = {(leaf, "--json" in argv) for argv in pinned_runs()
              for leaf in LEAVES if tuple(argv[:len(leaf)]) == leaf}
    assert {(leaf, as_json) for leaf in LEAVES for as_json in (False, True)} - pinned == set()


CANON_ROW = next(row for row in BOUNDS if row.name == "CANON_BOUND")
# one run of each leaf subcommand, with a wall-clock budget that includes
# process start; desc solomon 7 --json (234 KB) and the CANON_BOUND row's
# worst input (131 KB) are the largest outputs known.
CLOSED_STDOUT_RUNS = {
    ("shuffle",): (("shuffle", "a.b.c", "d.e"), 1.0),
    ("qshuffle",): (("qshuffle", "--table", "@qs", "x1.x2", "x1"), 1.0),
    ("binf", "prod"): (("binf", "prod", "a.b", "c", "--json"), 1.0),
    ("binf", "check"): (("binf", "check", "--alphabet", "a,b"), 1.0),
    ("eulerian",): (("eulerian", "a.b.c.d.e"), 1.0),
    ("varpi",): (("varpi", "--table", "@qs", "x1.x2"), 1.0),
    ("hoffman",): (("hoffman", "exp", "--table", "@qs", "x1.x2"), 1.0),
    ("omega",): (("omega", "a.b + b"), 1.0),
    ("zeta",): (("zeta", "a.b.c", "--json"), 1.0),
    ("desc", "dynkin"): (("desc", "dynkin", "7"), 1.0),
    ("desc", "solomon"): (("desc", "solomon", "7", "--json"), 1.0),
    ("desc", "conv"): (("desc", "conv", "1 2", "1"), 1.0),
    ("desc", "check"): (("desc", "check", "3", "--json"), 1.0),
    ("topo", "delta"): (("topo", "delta", "4; 1<2"), 1.0),
    ("topo", "delta2"): (("topo", "delta2", "4; 1<2", "--json"), 1.0),
    ("topo", "pi"): (("topo", "pi", "3; 1<2"), 1.0),
    ("topo", "upsilon"): (("topo", "upsilon", "3; 1<3, 2<3", "--json"), 1.0),
    ("topo", "lambda"): (("topo", "lambda", "2; 1<2"), 1.0),
    ("topo", "eulerian"): (("topo", "eulerian", "4; 1<2, 1<3, 1<4"), 1.0),
    ("topo", "pieul"): (CANON_ROW.worst[2:], CANON_ROW.budget),
    ("topo", "ladder"): (("topo", "ladder", "3", "--json"), 1.0),
    ("topo", "corolla"): (("topo", "corolla", "4"), 1.0),
}


def test_every_leaf_subcommand_has_a_closed_stdout_run():
    assert sorted(LEAVES) == sorted(CLOSED_STDOUT_RUNS)


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_a_closed_stdout_exits_1_quietly(leaf, table_paths):
    # the read end is closed before the child starts, so its first write fails
    argv, budget = CLOSED_STDOUT_RUNS[leaf]
    read_end, write_end = os.pipe()
    os.close(read_end)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "gebra", *[table_paths.get(a, a) for a in argv]],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert time.monotonic() - t0 < budget


def test_main_with_a_closed_stdout_returns_1():
    out, err = io.StringIO(), io.StringIO()
    out.close()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["desc", "dynkin", "3"]) == 1
    assert err.getvalue() == ""


# -- every leaf subcommand under a reader that leaves after k bytes ------------

# the closed-stdout run of each leaf, with a small class for topo pieul
READER_RUNS = {leaf: argv for leaf, (argv, _) in CLOSED_STDOUT_RUNS.items()}
READER_RUNS[("topo", "pieul")] = ("topo", "pieul", "4; 1<2, 1<3, 1<4")
# a wall-clock budget per case, process start included; the slowest of a
# seeded run of 3000 cases, two at a time, took 0.24 s on a 2-vCPU VM
READER_BUDGET = 1.0
READER_CHARS = "0123456789abx.,;:<~*/+- "
PAST_THE_END = 1 << 24


def reader_cases(seed, count):
    """count cases (argv, k), the leaves taken in turn.  k is 0, 1, past the
    end of any output, or a seeded size in between, so that every leaf meets
    every kind; about half the cases drop or replace one character of one
    argument."""
    rng = random.Random(seed)
    leaves = sorted(READER_RUNS)
    for i in range(count):
        argv = list(READER_RUNS[leaves[i % len(leaves)]])
        if rng.random() < 0.5:
            j = rng.randrange(len(argv))
            chars = list(argv[j])
            p = rng.randrange(len(chars))
            if rng.random() < 0.5:
                del chars[p]
            else:
                chars[p] = rng.choice(READER_CHARS)
            argv[j] = "".join(chars)
        k = (0, 1, PAST_THE_END, rng.randrange(2, 4096))[(i + i // len(leaves)) % 4]
        yield argv, k


def run_with_reader(argv, k, table_paths):
    """Run gebra on argv, read k bytes of its stdout, close the pipe, and
    return (exit code, stderr, seconds); a case past 5x the budget is killed."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "gebra", *[table_paths.get(a, a) for a in argv]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(5 * READER_BUDGET, proc.kill)
    killer.start()
    try:
        proc.stdout.read(k)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait()
    finally:
        killer.cancel()
    return code, err, time.monotonic() - t0


@pytest.mark.parametrize("argv,k", list(reader_cases(29, len(LEAVES))),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_reader_that_leaves_after_k_bytes_gets_a_documented_ending(argv, k, table_paths):
    code, err, elapsed = run_with_reader(argv, k, table_paths)
    assert code in (0, 1, 2, 3), err
    assert b"Traceback" not in err
    if code in (0, 1):
        assert err == b""
    assert elapsed < READER_BUDGET


def test_the_reader_cases_walk_every_leaf_and_every_kind_of_k():
    # one case per leaf, in turn; k takes every kind among them
    cases = list(reader_cases(29, len(LEAVES)))
    assert sorted(READER_RUNS) == sorted(LEAVES)
    assert {0, 1, PAST_THE_END} <= {k for _, k in cases}
    assert any(tuple(argv) not in READER_RUNS.values() for argv, _ in cases)
