"""Every size bound, one row each: the constant, the worst admitted input
known and how it was found, a fresh-process budget for it, and an input
just past the bound, built from the constant, that is refused within 1 s.

A bound is a promise: anything within it finishes within its row's budget,
process start included, and anything past it is refused before any work,
with exit 3 as a process, or with SizeBoundError in process where no
command reaches the refusal.  A row's worst input was measured with the
constant at `size`; the meta-test fails when the constant moves away from
it, so a raised bound comes with a new worst case.  Budgets are about 3x
the worst measured on a 2-vCPU VM, and at least 1 s.
"""

import dataclasses
import hashlib
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys
import time
from itertools import count

import pytest

import gebra
from gebra import topo
from gebra.binfty import axiom_check_size
from gebra.exactlin import SizeBoundError


def gebra_argv(*argv):
    return ("-m", "gebra", *argv)


@dataclasses.dataclass(frozen=True)
class Bound:
    module: str
    name: str
    # The worst input's size, and its size grown by one step: the meta-test
    # wants size <= the constant < grown.
    size: int
    grown: int
    # The worst admitted input known, as arguments of a fresh python
    # process ("@qs8" and "@rational" name table files), with its exact
    # stdout, or that stdout's sha256 for a long one.
    worst: tuple
    stdout: str
    how_found: str
    budget: float
    # The constant -> an input just past it: process arguments, or a
    # function that raises SizeBoundError in process.
    past: object
    # The refusal message, {} standing for the constant.
    refusal: str

    @property
    def value(self):
        return getattr(importlib.import_module(f"gebra.{self.module}"), self.name)



BOUNDS = [
    Bound(
        "words", "WORD_BOUND", 8, 9,
        gebra_argv("eulerian", "--table", "@qs8", "x1.x2.x3.x4.x5.x6.x7.x8"),
        "f4579e63b11b00972cd0786f710e8f431f660b1ba3ac11ba995667fe73c5236a",
        "eulerian, varpi, omega, zeta at length 8 and binf prod at 4 + 4 letters, timed in "
        "process on this table (x_i * x_j = x_min(i+j, 8)), on eight shuffle letters and on "
        "the flalg explicit table: this one took 3.4 s (166171 terms, 4.8 MB of output), the "
        "next 0.21 s; 3.2-3.6 s as a process.  A dense explicit table over many letters can "
        "take longer at the same length: explicit tables are bounded in length only.",
        10.0,
        lambda c: gebra_argv("eulerian", "--table", "@qs8", ".".join(["x1"] * (c + 1))),
        "word-side computations stop at length {}",
    ),
    Bound(
        "binfty", "AXIOM_CHECK_BOUND", axiom_check_size(2, 7), axiom_check_size(2, 8),
        gebra_argv("binf", "check", "--table", "@rational", "--budget", "7"),
        "unit: pass\nassoc: fail\ncomm: fail\ntrivial: fail\n",
        "two letters at budget 7 visit the most tuples under the bound (4346; three letters "
        "stop at budget 5, 3369 tuples), and this table makes every bracket among them "
        "nonzero with denominators that share no factor, so its Fraction sums cost the most "
        "known: 1.1-1.8 s as a process.  The same pairs bracketing to a + b "
        "(dense_table_path) took 0.2-0.3 s, and tables like this one on 3, 4, 5 and 10 "
        "letters at their last budgets 0.3-1.6 s.",
        5.0,
        lambda c: gebra_argv("binf", "check", "--alphabet", "a,b", "--budget",
                             str(next(b for b in count(1) if axiom_check_size(2, b) > c))),
        "more than {}",
    ),
    Bound(
        "descent", "DEGREE_BOUND", 7, 8,
        gebra_argv("desc", "check", "7"),
        "solomon_idempotent: pass\nsolomon_primitive: pass\nsolomon_matches_log_oracle: pass\n"
        "dynkin_primitive: pass\ndynkin_quasi_idempotent: pass\nsolomon_lie_valued: pass\n"
        "dynkin_lie_valued: pass\n",
        "the slowest desc command at n = 7 as a process: check 0.33-0.48 s, solomon 0.11 s, "
        "dynkin and conv 0.08 s.",
        1.5,
        lambda c: gebra_argv("desc", "check", str(c + 1)),
        "descent computations stop at n = {}",
    ),
    Bound(
        "topo", "CANON_BOUND", 8, 9,
        gebra_argv("topo", "pieul", "8; 6<1, 7<1, 8<1, 5<2, 7<2, 8<2, 4<3, 5<3, 6<3, 7<3, 8<3, 8<4, 8<6"),
        "75a5a7b161fe3c2785394d2915f7e98f253380933c037385b1ae35c645597c76",
        "pieul is the slowest command that 8 points reach (eulerian, delta2 and pi on this "
        "input take 0.3-0.65 s).  Timed cold in process over all 4535 classes on 7 points, "
        "then over the 2824 classes that extend one of the 50 slowest of those by one point; "
        "the 60 slowest of these were timed again as processes.  This one took 2.5-4.0 s as "
        "a process over six runs (32 MiB peak); three others reached 3.9-4.0 s in single "
        "runs, as the VM's speed drifted between runs.",
        12.0,
        lambda c: gebra_argv("topo", "pi", str(c + 1)),
        "canonical forms stop at n = {}",
    ),
    Bound(
        "topo", "ISO_BOUND", 6, 7,
        ("-c", "import gebra.topo as t; print(len(t.all_isoclasses(6)))"),
        "718\n",  # OEIS A001930
        "the listing at n is the one input of that size, grown from every smaller one: "
        "0.49-0.57 s as a process.",
        1.5,
        lambda c: lambda: topo.all_isoclasses(c + 1),
        "isoclass enumeration stops at n = {}",
    ),
    Bound(
        "topo", "REFERENCE_BOUND", 7, 8,
        ("-c", "import gebra.topo as t; d = t.discrete(7); "
               "print(t.upsilon(d, method='surjection_oracle'), t.lambda_char(d, method='delta_series'), "
               "t.eulerian_e(d, method='direct'))"),
        "5040X^6+15120X^5+16800X^4+8400X^3+1806X^2+126X+1 0 LinComb({})\n",
        "the three reference routes on the discrete topology, whose open sets (all 2^7 "
        "subsets) and strict order (none) make the most chains of open sets and admit the "
        "most maps onto a chain of any 7-point class: 0.31, 0.66 and 0.96 s in process, "
        "1.8-1.9 s for all three as a process.  On 8 points they took 10.9, 13.2 and 19.4 s.",
        6.0,
        lambda c: lambda: topo.eulerian_e(topo.discrete(c + 1), method="direct"),
        "reference routes stop at n = {}",
    ),
]
IDS = [row.name for row in BOUNDS]


@pytest.fixture(scope="module")
def table_files(tmp_path_factory, rational_table_path):
    """The saturating quasi-shuffle table on x1..x8, x_i * x_j = x_min(i+j, 8),
    and the rational explicit table."""
    lines = ["mode: qshuffle", "alphabet: " + ", ".join(f"x{i}:{i}" for i in range(1, 9))]
    lines += [f"x{i} * x{j} = x{min(i + j, 8)}" for i in range(1, 9) for j in range(1, 9)]
    qs8 = tmp_path_factory.mktemp("bounds") / "qs8.tbl"
    qs8.write_text("\n".join(lines) + "\n")
    return {"@qs8": str(qs8), "@rational": rational_table_path}


def _run(argv, table_files):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *[table_files.get(a, a) for a in argv]],
                          capture_output=True, text=True)
    return proc, time.monotonic() - t0


@pytest.mark.parametrize("row", BOUNDS, ids=IDS)
def test_worst_admitted_input_finishes_within_budget(row, table_files):
    proc, elapsed = _run(row.worst, table_files)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert row.stdout in (proc.stdout, hashlib.sha256(proc.stdout.encode()).hexdigest())
    assert elapsed < row.budget


@pytest.mark.parametrize("row", BOUNDS, ids=IDS)
def test_input_past_the_bound_is_refused_within_1s(row, table_files):
    past = row.past(row.value)
    message = "size bound: .*" + re.escape(row.refusal.format(row.value))
    if callable(past):
        t0 = time.monotonic()
        with pytest.raises(SizeBoundError, match=message):
            past()
        elapsed = time.monotonic() - t0
    else:
        proc, elapsed = _run(past, table_files)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert re.fullmatch(f"error: {message}\n", proc.stderr)
    assert elapsed < 1.0


def _sources():
    for info in pkgutil.iter_modules(gebra.__path__):
        yield info.name, pathlib.Path(gebra.__path__[0], f"{info.name}.py").read_text()


def test_every_bound_has_one_row_measured_at_it():
    defined = {(module, name) for module, text in _sources()
               for name in re.findall(r"^([A-Z][A-Z_]*_BOUND) *=", text, re.M)}
    assert defined == {(row.module, row.name) for row in BOUNDS}
    assert len(IDS) == len(set(IDS))
    for row in BOUNDS:
        assert row.size <= row.value < row.grown, row.name
    # the README's bounds table lists the same constants at the same values
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
    listed = re.findall(r"^\| `(\w+)\.(\w+_BOUND)` \| (\d+) \|", readme, re.M)
    assert sorted(listed) == sorted((row.module, row.name, str(row.value)) for row in BOUNDS)


def test_the_command_line_reads_no_bound():
    text = dict(_sources())["cli"]
    assert not re.findall(r"\w*_BOUND\b|check_word_bound", text)
