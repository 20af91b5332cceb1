"""Shared fixtures: small alphabets and the bracket structures used throughout."""

import itertools

import pytest
from fractions import Fraction

from gebra.words import Alphabet
from gebra.binfty import BInftyStructure


def saturating_mult(alphabet, cap):
    """xi * xj = x_min(i+j, cap) on letters x1..x_cap."""
    table = {}
    for i in range(1, cap + 1):
        for j in range(1, cap + 1):
            table[(f"x{i}", f"x{j}")] = f"x{min(i + j, cap)}"
    return table


@pytest.fixture(scope="session")
def alph3():
    return Alphabet("x1:1, x2:2, x3:3")


@pytest.fixture(scope="session")
def qs3(alph3):
    """Quasi-shuffle over the saturating 3-letter commutative semigroup."""
    return BInftyStructure.quasi_shuffle(alph3, saturating_mult(alph3, 3))


@pytest.fixture(scope="session")
def sh3(alph3):
    return BInftyStructure.shuffle(alph3)


@pytest.fixture(scope="session")
def alph8():
    return Alphabet(",".join(f"x{i}:{i}" for i in range(1, 9)))


@pytest.fixture(scope="session")
def qs8(alph8):
    return BInftyStructure.quasi_shuffle(alph8, saturating_mult(alph8, 8))


@pytest.fixture(scope="session")
def flalg():
    """Two letters a (degree 1) and b (degree 2), bracket <a,a> = 2b.

    The bound is generous so products of words of total length 5 stay legal.
    """
    alphabet = Alphabet("a:1, b:2")
    a = alphabet.word("a")
    b = alphabet.letter(1)
    from gebra.exactlin import LinComb

    table = {(a, a): LinComb.single(b, Fraction(2))}
    return BInftyStructure.explicit(alphabet, table, bound=6)


def _dense_table_path(tmp_path_factory, name, values):
    """Two letters; the pairs of words of total length up to 7, in order,
    bracket to the strings of values."""
    words = [p for n in range(1, 7) for p in itertools.product("ab", repeat=n)]
    pairs = [(w, w2) for w in words for w2 in words if len(w) + len(w2) <= 7]
    lines = ["mode: explicit", "alphabet: a, b", "bound: 8"]
    lines += [f"{'.'.join(w)} , {'.'.join(w2)} -> {value}" for (w, w2), value in zip(pairs, values)]
    path = tmp_path_factory.mktemp(name) / f"{name}.tbl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _primes():
    """The primes in increasing order, by trial division."""
    found = []
    for n in itertools.count(2):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, found)):
            found.append(n)
            yield n


@pytest.fixture(scope="session")
def dense_table_path(tmp_path_factory):
    """Two letters; every pair of words of total length up to 7 brackets to a + b."""
    return _dense_table_path(tmp_path_factory, "dense", itertools.repeat("a + b"))


@pytest.fixture(scope="session")
def rational_table_path(tmp_path_factory):
    """The pairs of the dense table, each bracketing to 1/p*a + 1/q*b with
    primes p and q used once each, so no two denominators share a factor."""
    primes = _primes()
    return _dense_table_path(
        tmp_path_factory, "rational", (f"1/{p}*a + 1/{q}*b" for p, q in zip(primes, primes))
    )


RANDOM_COEFFS = ("-2", "-1", "-1/2", "1/3", "1", "2", "3/2", "-5/6")


def random_table_text(rng):
    """A random explicit bracket table on two or three letters, bound 3.

    Values are rational, often negative; about one line in five is a value
    that cancels to zero as the table is read.  A line whose pair was drawn
    before is left out, since a table gives each pair once; its draws are
    still made, so the other lines do not depend on which were left out.
    """
    letters = ("a", "b", "c")[: rng.randint(2, 3)]
    words = [".".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(12)]
    lines = ["mode: explicit", "alphabet: " + ", ".join(letters), "bound: 3"]
    drawn = set()
    for _ in range(rng.randint(3, 8)):
        u, v = rng.choice(words), rng.choice(words)
        if rng.random() < 0.2:
            x = rng.choice(letters)
            value = f"1/2*{x} + -1/2*{x}"
        else:
            value = " + ".join(
                f"{rng.choice(RANDOM_COEFFS)}*{rng.choice(letters)}" for _ in range(rng.randint(1, 3))
            )
        if (u, v) not in drawn:
            lines.append(f"{u} , {v} -> {value}")
        drawn.add((u, v))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def random_tables():
    """Eight seeded random explicit structures (see random_table_text)."""
    import random

    from gebra.binfty import parse_bracket_file

    return [parse_bracket_file(random_table_text(random.Random(seed))) for seed in range(8)]
