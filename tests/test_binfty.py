"""Brackets, induced products, and the bracket table file format."""

import itertools
import re

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gebra.exactlin import InputError, LinComb, SizeBoundError
from gebra.words import Alphabet, parse_tensor, parse_word
from gebra.binfty import (
    AXIOM_CHECK_BOUND,
    QUASI_SHUFFLE,
    BInftyStructure,
    axiom_check_size,
    check_axioms,
    induced_product,
    parse_bracket_file,
    product_terms,
    quasi_shuffle_recursive,
    surjection_product_oracle,
)


def test_bracket_unit_rules(qs3, alph3):
    one = alph3.empty_word()
    v = parse_word("x1", alph3)
    w = parse_word("x1.x2", alph3)
    assert qs3.bracket(one, v) == LinComb.single(v)
    assert qs3.bracket(v, one) == LinComb.single(v)
    assert qs3.bracket(one, w) == LinComb.zero()
    assert qs3.bracket(w, one) == LinComb.zero()
    assert qs3.bracket(one, one) == LinComb.zero()


def test_quasi_shuffle_bracket_is_letter_multiplication(qs3, alph3):
    v = parse_word("x1", alph3)
    w = parse_word("x2", alph3)
    assert qs3.bracket(v, w) == LinComb.single(parse_word("x3", alph3))
    # saturation at the top letter
    top = parse_word("x3", alph3)
    assert qs3.bracket(top, top) == LinComb.single(top)
    # longer words bracket to zero
    assert qs3.bracket(parse_word("x1.x1", alph3), v) == LinComb.zero()


def test_bracket_refuses_words_over_another_alphabet(qs3, flalg, sh3):
    xy = Alphabet("x,y")
    x, y = parse_word("x", xy), parse_word("y", xy)
    for B in (qs3, flalg):
        with pytest.raises(InputError, match="different alphabets"):
            B.bracket(x, y)
        with pytest.raises(InputError, match="different alphabets"):
            B.bracket(xy.empty_word(), x)
    # the shuffle bracket is zero on words over any alphabet
    assert sh3.bracket(x, y) == LinComb.zero()
    assert sh3.bracket(xy.empty_word(), x) == LinComb.single(x)


def test_bracket_agrees_with_the_index_table(qs3, flalg):
    for B in (qs3, flalg):
        words = list(B.alphabet.words(2, minlen=1))
        for w, w2 in itertools.product(words, words):
            want = {u: Fraction(c) for u, c in B.bracket_terms(w.idx, w2.idx)}
            got = B.bracket(w, w2)
            assert {u.idx: c for u, c in got.terms.items()} == want
            assert all(u.alphabet is B.alphabet for u in got.terms)


def test_shuffle_product_small(sh3, alph3):
    x1 = parse_word("x1", alph3)
    assert induced_product(sh3, x1, x1) == parse_tensor("2*x1.x1", alph3)
    got = induced_product(sh3, parse_word("x1.x2", alph3), parse_word("x3", alph3))
    want = parse_tensor("x1.x2.x3 + x1.x3.x2 + x3.x1.x2", alph3)
    assert got == want


def test_quasi_shuffle_product_small(qs3, alph3):
    x1 = parse_word("x1", alph3)
    assert induced_product(qs3, x1, x1) == parse_tensor("2*x1.x1 + x2", alph3)
    got = induced_product(qs3, x1, parse_word("x1.x2", alph3))
    want = parse_tensor("2*x1.x1.x2 + x1.x2.x1 + x2.x2 + x1.x3", alph3)
    assert got == want


def test_unit_word_is_neutral(qs3, alph3):
    one = LinComb.single(alph3.empty_word())
    for text in ("x1", "x1.x2", "x2.x1.x1"):
        w = parse_word(text, alph3)
        assert induced_product(qs3, one, w) == LinComb.single(w)
        assert induced_product(qs3, w, one) == LinComb.single(w)
    assert induced_product(qs3, one, one) == one


def test_product_routes_agree(qs3, sh3, alph3):
    """Recursive definition, surjection oracle, three-term recursion agree
    on every word pair of total length <= 5."""
    words = list(alph3.words(4, minlen=1))
    for B in (qs3, sh3):
        for w, w2 in itertools.product(words, words):
            if len(w) + len(w2) > 5:
                continue
            p = induced_product(B, w, w2)
            assert p == surjection_product_oracle(B, w, w2)
            assert p == quasi_shuffle_recursive(B, w, w2)


def test_product_matches_the_oracle_on_random_rational_tables(random_tables):
    """Every word pair of total length <= 4 on eight random tables with
    rational, negative and cancelling brackets; the kernel's own dicts hold
    exactly the oracle's terms, so no zero coefficient is stored."""
    for B in random_tables:
        words = list(B.alphabet.words(3, minlen=1))
        memo = {}
        for w, w2 in itertools.product(words, words):
            if len(w) + len(w2) > 4:
                continue
            want = surjection_product_oracle(B, w, w2)
            assert induced_product(B, w, w2) == want, (w, w2)
            got = product_terms(B, w.idx, w2.idx, memo)
            assert got == {u.idx: c for u, c in want.terms.items()}, (w, w2)


def test_mixed_alphabets_raise(qs3, sh3, alph3):
    other = Alphabet("x1:1, x2:2, y:3")
    x1 = parse_word("x1", alph3)
    y = parse_word("x1.y", other)
    for B in (qs3, sh3):
        with pytest.raises(InputError, match="different alphabets"):
            induced_product(B, x1, y)
        with pytest.raises(InputError, match="different alphabets"):
            induced_product(B, LinComb.single(x1) + LinComb.single(y), x1)
    # a structure with a bracket meets only words over its own alphabet
    with pytest.raises(InputError, match="different alphabets"):
        induced_product(qs3, y, y)
    # the shuffle bracket is zero, so words over any one alphabet multiply
    want = parse_tensor("2*x1.y.y + y.x1.y", other)
    assert induced_product(sh3, y, parse_word("y", other)) == want


def test_out_of_bound_product_names_the_first_visited_pair():
    """The pair named is the first past the bound in the order of the cut
    recursion: the right factor's first letter, the left factor's, then
    the double loop over the bracketed cuts."""
    text = "mode: explicit\nalphabet: a:1, b:1\nbound: 1\na , a -> b\na , b -> a\nb , a -> 2*a\n"
    B = parse_bracket_file(text)
    cases = [
        ("a.b", "b.a", "(a.b, a)"),
        ("b.a.a", "a.b", "(a.a, b)"),
        ("a", "b.b.a", "(a, b.a)"),
    ]
    for u, v, pair in cases:
        w, w2 = parse_word(u, B.alphabet), parse_word(v, B.alphabet)
        with pytest.raises(InputError) as exc:
            induced_product(B, w, w2)
        assert str(exc.value) == f"bracket evaluated outside the table bound 1: {pair}"
    B2 = parse_bracket_file(text.replace("bound: 1", "bound: 2") + "a.a , b -> b\n")
    with pytest.raises(InputError) as exc:
        induced_product(B2, parse_word("b.a.a", B2.alphabet), parse_word("a.b", B2.alphabet))
    assert str(exc.value) == "bracket evaluated outside the table bound 2: (b.a.a, b)"


def test_product_is_associative_and_commutative(qs3, alph3):
    words = [parse_word(t, alph3) for t in ("x1", "x2", "x1.x1")]
    for x, y in itertools.product(words, words):
        assert induced_product(qs3, x, y) == induced_product(qs3, y, x)
    for x, y, z in itertools.product(words[:2], words[:2], words):
        left = LinComb.zero()
        for w, c in induced_product(qs3, x, y).items():
            left = left + c * induced_product(qs3, w, z)
        right = LinComb.zero()
        for w, c in induced_product(qs3, y, z).items():
            right = right + c * induced_product(qs3, x, w)
        assert left == right


def test_product_is_associative_on_random_triples(qs3, flalg):
    import random

    rng = random.Random(41)
    for B in (qs3, flalg):
        words = [w for w in B.alphabet.words(3, minlen=1)]
        for _ in range(12):
            x, y, z = (rng.choice(words) for _ in range(3))
            if len(x) + len(y) + len(z) > 5:
                continue
            left = LinComb.zero()
            for w, c in induced_product(B, x, y).items():
                left = left + c * induced_product(B, w, z)
            right = LinComb.zero()
            for w, c in induced_product(B, y, z).items():
                right = right + c * induced_product(B, x, w)
            assert left == right


def test_product_is_a_coalgebra_morphism(qs3, alph3):
    """deconcat(w * w') expands as the product of deconcatenations."""
    from gebra.words import deconcat

    words = list(alph3.words(2, minlen=1))
    for w, w2 in itertools.product(words, words):
        lhs = LinComb.zero()
        for u, c in induced_product(qs3, w, w2).items():
            lhs = lhs + c * deconcat(u)
        rhs = LinComb.zero()
        for (a, b), c in deconcat(w).items():
            for (a2, b2), d in deconcat(w2).items():
                for u, cu in induced_product(qs3, a, a2).items():
                    for v, cv in induced_product(qs3, b, b2).items():
                        rhs = rhs + LinComb.single((u, v), c * d * cu * cv)
        assert lhs == rhs


def test_graded_product_preserves_degree(flalg):
    words = [w for w in flalg.alphabet.words(2, minlen=1)]
    for w, w2 in itertools.product(words, words):
        for u in induced_product(flalg, w, w2).terms:
            assert u.degree == w.degree + w2.degree


def test_product_respects_length_filtration(qs3, alph3):
    words = list(alph3.words(2, minlen=1))
    for w, w2 in itertools.product(words, words):
        for u in induced_product(qs3, w, w2).terms:
            assert len(u) <= len(w) + len(w2)


def test_explicit_structure_flalg(flalg):
    ab = flalg.alphabet
    a = parse_word("a", ab)
    assert induced_product(flalg, a, a) == parse_tensor("2*a.a + 2*b", ab)
    assert flalg.bracket(a, parse_word("b", ab)) == LinComb.zero()


def test_explicit_bracket_bound_is_enforced():
    ab = Alphabet("a:1, b:2")
    a = parse_word("a", ab)
    table = {(a, a): LinComb.single(parse_word("b", ab), Fraction(2))}
    B = BInftyStructure.explicit(ab, table, bound=2)
    long = parse_word("a.a.a", ab)
    with pytest.raises(InputError, match="outside the table bound"):
        B.bracket(long, a)
    with pytest.raises(InputError, match="smaller than the stored table"):
        BInftyStructure.explicit(ab, {(a * a, a): LinComb.single(parse_word("b", ab))}, bound=1)


def test_explicit_table_validation():
    ab = Alphabet("a:1, b:2")
    a = parse_word("a", ab)
    aa = parse_word("a.a", ab)
    with pytest.raises(InputError, match="unit-word"):
        BInftyStructure.explicit(ab, {(ab.empty_word(), a): LinComb.single(a)})
    with pytest.raises(InputError, match="not a letter"):
        BInftyStructure.explicit(ab, {(a, a): LinComb.single(aa)})


def test_quasi_shuffle_table_must_be_total():
    ab = Alphabet("a:1, b:1")
    with pytest.raises(InputError, match="multiplication table is not total"):
        BInftyStructure.quasi_shuffle(ab, {("a", "a"): "b"})


def test_is_degree_graded(qs3, sh3, flalg):
    assert qs3.is_degree_graded() is False  # saturation breaks the grading
    assert sh3.is_degree_graded() is True
    assert flalg.is_degree_graded() is True
    graded = BInftyStructure.quasi_shuffle(
        Alphabet("x1:1, x2:2"), {("x1", "x1"): "x2", ("x1", "x2"): "x2",
                                 ("x2", "x1"): "x2", ("x2", "x2"): "x2"}
    )
    assert graded.is_degree_graded() is False  # x1*x2 lands in degree 2, not 3


def test_check_axioms_reports(qs3, sh3, flalg):
    assert check_axioms(sh3, 3) == {
        "unit": True, "assoc": True, "comm": True, "trivial": True,
    }
    r = check_axioms(qs3, 3)
    assert r == {"unit": True, "assoc": True, "comm": True, "trivial": False}
    assert check_axioms(flalg, 4)["assoc"] is True


def test_axiom_check_size_counts_the_visited_tuples():
    # the words, pairs and triples that check_axioms' loops run over
    for k in (1, 2, 3):
        alphabet = Alphabet(",".join("abc"[:k]))
        for budget in range(1, 6):
            visited = sum(1 for _ in alphabet.words(budget, minlen=1))
            for w in alphabet.words(budget - 1, minlen=1):
                for w2 in alphabet.words(budget - len(w), minlen=1):
                    rest = budget - len(w) - len(w2)
                    visited += 1 + sum(1 for _ in alphabet.words(rest, minlen=1))
            assert axiom_check_size(k, budget) == visited


def test_check_axioms_refuses_before_enumerating(qs3):
    # the exit codes and timings of refusals are checked in test_cli.py
    assert axiom_check_size(3, 5) <= AXIOM_CHECK_BOUND < axiom_check_size(3, 6)
    with pytest.raises(SizeBoundError):
        check_axioms(qs3, 6)


def test_check_axioms_flags_a_broken_bracket():
    ab = Alphabet("a:1, b:1")
    # non-associative letter multiplication: a*a = b, everything else = a
    mult = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "a"}
    B = BInftyStructure.quasi_shuffle(ab, mult)
    r = check_axioms(B, 3)
    assert r["assoc"] is False


def reference_axioms(B, budget):
    """check_axioms recomputed word by word: products from the surjection
    oracle, brackets of combinations summed from B.bracket, and nothing
    shared with product_terms.  The loops visit words, pairs and triples in
    length-lexicographic order, bracketing (w, w2) before (w2, w), so a
    table evaluated past its bound names the first such pair."""
    alphabet = B.alphabet
    one = alphabet.empty_word()
    products = {}

    def product(w, w2):
        if (w, w2) not in products:
            products[w, w2] = surjection_product_oracle(B, w, w2)
        return products[w, w2]

    def bracket_sum(x, y):
        out = LinComb.zero()
        for u, c in x.items():
            for v, d in y.items():
                out = out + c * d * B.bracket(u, v)
        return out

    unit = all(
        B.bracket(one, w) == B.bracket(w, one) == (LinComb.single(w) if len(w) == 1 else LinComb.zero())
        for w in alphabet.words(budget, minlen=1)
    )
    comm = trivial = True
    for w in alphabet.words(budget - 1, minlen=1):
        for w2 in alphabet.words(budget - len(w), minlen=1):
            val = B.bracket(w, w2)
            if val:
                trivial = False
            if val != B.bracket(w2, w):
                comm = False
    assoc = True
    for w in alphabet.words(budget - 2, minlen=1):
        for w2 in alphabet.words(budget - len(w) - 1, minlen=1):
            for w3 in alphabet.words(budget - len(w) - len(w2), minlen=1):
                left = bracket_sum(product(w, w2), LinComb.single(w3))
                right = bracket_sum(LinComb.single(w), product(w2, w3))
                if left != right:
                    assoc = False
    return {"unit": unit, "assoc": assoc, "comm": comm, "trivial": trivial}


def _outcome(check, B, budget):
    try:
        return check(B, budget)
    except InputError as exc:
        return type(exc), str(exc)


# x * y = y: an associative letter product that is not commutative, so the
# induced product is associative and not commutative either
RIGHT_ZERO_TABLE = "mode: qshuffle\nalphabet: a, b\na * a = a\na * b = b\nb * a = a\nb * b = b\n"


def test_check_axioms_matches_the_word_level_reference(random_tables, qs3, sh3, flalg,
                                                        dense_table_path):
    """Equal reports, or the same error, at length budgets 1-5 on the eight
    random tables and 100 more seeds of random_table_text (bound 3, so
    budget 5 reads past it), qs3, sh3, flalg, the dense table and the
    right-zero table.  About 5 s on a 2-vCPU VM, most of it in the reference."""
    import random

    from conftest import random_table_text

    structures = random_tables + [
        parse_bracket_file(random_table_text(random.Random(seed))) for seed in range(8, 108)
    ]
    with open(dense_table_path) as f:
        structures += [qs3, sh3, flalg, parse_bracket_file(f.read()), parse_bracket_file(RIGHT_ZERO_TABLE)]
    seen = set()
    for B in structures:
        for budget in range(1, 6):
            got = _outcome(check_axioms, B, budget)
            assert got == _outcome(reference_axioms, B, budget), (B.mode, budget)
            seen.update(got.items() if isinstance(got, dict) else [got[0]])
    # the unit rules are built in; every other entry is reached both ways
    assert seen == {("unit", True), InputError} | {
        (key, value) for key in ("assoc", "comm", "trivial") for value in (True, False)
    }


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
bound: 2
a , a -> 2*b
"""


def test_parse_bracket_file_quasi_shuffle(alph3):
    B = parse_bracket_file(QS_TABLE)
    assert B.mode == "quasi_shuffle"
    assert B.alphabet == alph3
    x1 = parse_word("x1", B.alphabet)
    assert induced_product(B, x1, x1) == parse_tensor("2*x1.x1 + x2", B.alphabet)


def test_parse_bracket_file_explicit():
    B = parse_bracket_file(FLALG_TABLE)
    assert B.mode == "explicit"
    assert B.bound == 2
    a = parse_word("a", B.alphabet)
    assert B.bracket(a, a) == parse_tensor("2*b", B.alphabet)


def test_parse_bracket_file_infers_degree_one_letters():
    B = parse_bracket_file("mode: qshuffle\nu * u = u\n")
    assert B.alphabet.letters == ("u",)
    assert B.alphabet.degrees == (1,)


def test_parse_bracket_file_errors():
    with pytest.raises(InputError, match="mode"):
        parse_bracket_file("a , a -> b\n")
    with pytest.raises(InputError):
        parse_bracket_file("mode: nonsense\n")
    with pytest.raises(InputError):
        parse_bracket_file("mode: explicit\nalphabet: a:1\nthis is not a line\n")
    with pytest.raises(InputError, match="multiplication table is not total"):
        parse_bracket_file("mode: qshuffle\nalphabet: a:1, b:1\na * a = b\n")
    for bound in ("\u0663", "1_0"):
        with pytest.raises(InputError, match="bad bound"):
            parse_bracket_file(f"mode: explicit\nalphabet: a, b\nbound: {bound}\na , a -> b\n")
    qs_total = "a * a = b\na * b = b\nb * a = b\nb * b = b\n"
    for mode, body, line in (
        ("shuffle", "a , a -> b\n", "a , a -> b"),
        ("shuffle", "a * a = b\n", "a * a = b"),
        ("explicit", "a , a -> b\na * a = b\n", "a * a = b"),
        ("qshuffle", qs_total + "a , b -> 1/2*a\n", "a , b -> 1/2*a"),
        ("shuffle", "bound: 1\n", "bound: 1"),
        ("qshuffle", qs_total + "bound: 2\n", "bound: 2"),
    ):
        with pytest.raises(InputError, match=re.escape(repr(line)) + " is not read"):
            parse_bracket_file(f"mode: {mode}\nalphabet: a, b\n{body}")
    assert parse_bracket_file(f"mode: qshuffle\nalphabet: a, b\n{qs_total}").mode == QUASI_SHUFFLE
    for mode, body, line, pair in (
        ("explicit", "a , b -> a\na , b -> b\n", "a , b -> b", "(a, b)"),
        ("explicit", "a , b -> a\na, b -> 0\n", "a, b -> 0", "(a, b)"),
        ("explicit", "a.b , a -> 0\nb , a -> a\na.b,a -> b\n", "a.b,a -> b", "(a.b, a)"),
        ("qshuffle", qs_total + "b*a = a\n", "b*a = a", "(b, a)"),
    ):
        with pytest.raises(InputError) as exc:
            parse_bracket_file(f"mode: {mode}\nalphabet: a, b\n{body}")
        assert str(exc.value) == f"table line {line!r} gives the pair {pair} a second time"


@settings(max_examples=40)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
def test_shuffle_commutativity_random(u, v):
    ab = Alphabet("a:1, b:1, c:1")
    B = BInftyStructure.shuffle(ab)
    w = parse_word(".".join(u), ab)
    w2 = parse_word(".".join(v), ab)
    assert induced_product(B, w, w2) == induced_product(B, w2, w)
    total = sum(induced_product(B, w, w2).terms.values())
    from math import comb

    assert total == comb(len(w) + len(w2), len(w))
