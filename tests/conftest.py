"""Shared fixtures: small alphabets and the bracket structures used throughout."""

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


RANDOM_COEFFS = ("-2", "-1", "-1/2", "1/3", "1", "2", "3/2", "-5/6")


def random_table_text(rng):
    """A random explicit bracket table on two or three letters, bound 3.

    Values are rational, often negative; about one line in five is a value
    that cancels to zero as the table is read.
    """
    letters = ("a", "b", "c")[: rng.randint(2, 3)]
    words = [".".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(12)]
    lines = ["mode: explicit", "alphabet: " + ", ".join(letters), "bound: 3"]
    for _ in range(rng.randint(3, 8)):
        u, v = rng.choice(words), rng.choice(words)
        if rng.random() < 0.2:
            x = rng.choice(letters)
            value = f"1/2*{x} + -1/2*{x}"
        else:
            value = " + ".join(
                f"{rng.choice(RANDOM_COEFFS)}*{rng.choice(letters)}" for _ in range(rng.randint(1, 3))
            )
        lines.append(f"{u} , {v} -> {value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def random_tables():
    """Eight seeded random explicit structures (see random_table_text)."""
    import random

    from gebra.binfty import parse_bracket_file

    return [parse_bracket_file(random_table_text(random.Random(seed))) for seed in range(8)]
