"""Canonical idempotents and the isomorphism onto the shuffle algebra."""

import copy
import itertools

import pytest
from fractions import Fraction

from gebra.exactlin import InputError, LinComb, SizeBoundError
from gebra.words import (
    WORD_BOUND,
    Alphabet,
    LetterMap,
    cofree_lift,
    inverse_structure_endo,
    parse_tensor,
    parse_word,
    reduced_coproduct_iter,
    structure_endo,
)
from gebra.binfty import induced_product, surjection_product_oracle
from gebra.idem import (
    eulerian_idempotent,
    hoffman_exp,
    hoffman_log,
    omega_tilde,
    varpi,
    zeta_tilde,
)


def _fixing(B):
    return LetterMap(B.alphabet, identity_on_letters=True)


# Every word-side library entry, on a word one letter past WORD_BOUND, and
# the product on factors whose lengths add up to one past it.
WORD_ENTRIES = {
    "eulerian_idempotent": lambda B, w: eulerian_idempotent(B, w),
    "varpi": lambda B, w: varpi(B, w),
    "omega_tilde": lambda B, w: omega_tilde(B, w),
    "zeta_tilde": lambda B, w: zeta_tilde(B, LinComb.single(w) + LinComb.single(w[:1])),
    "cofree_lift": lambda B, w: cofree_lift(_fixing(B), w),
    "structure_endo": lambda B, w: structure_endo(_fixing(B), w),
    "inverse_structure_endo": lambda B, w: inverse_structure_endo(_fixing(B), w),
    "reduced_coproduct_iter": lambda B, w: reduced_coproduct_iter(w, 2),
    "hoffman_log": lambda B, w: hoffman_log(B, w),
    "hoffman_exp": lambda B, w: hoffman_exp(B, w),
    "induced_product": lambda B, w: induced_product(B, w[:5], w[5:]),
}


@pytest.mark.parametrize("entry", WORD_ENTRIES.values(), ids=WORD_ENTRIES)
def test_library_word_entries_refuse_past_the_word_bound(entry, qs3):
    letters = qs3.alphabet.letters
    w = parse_word(".".join(letters[i % 3] for i in range(WORD_BOUND + 1)), qs3.alphabet)
    with pytest.raises(SizeBoundError, match=f"stop at length {WORD_BOUND}$"):
        entry(qs3, w)


def letter_part(x):
    return LinComb({w: c for w, c in x.terms.items() if len(w) == 1})


def test_eulerian_idempotent_small_values(qs3, alph3):
    w = parse_word("x1.x2", alph3)
    assert eulerian_idempotent(qs3, w) == parse_tensor(
        "1/2*x1.x2 + -1/2*x2.x1 + -1/2*x3", alph3
    )
    v = parse_word("x1", alph3)
    assert eulerian_idempotent(qs3, v) == LinComb.single(v)
    assert eulerian_idempotent(qs3, LinComb.single(alph3.empty_word())) == LinComb.zero()


def test_eulerian_idempotent_is_idempotent(qs3, sh3, qs8, flalg, alph3):
    # quasi-shuffle over an additive semigroup: words over the two smallest
    # letters of the saturating 8-letter structure never reach the cap
    small8 = [w for w in qs8.alphabet.words(4, minlen=1) if all(i < 2 for i in w.idx)]
    corpora = [
        (qs3, list(alph3.words(4, minlen=1))),
        (sh3, list(alph3.words(4, minlen=1))),
        (qs8, small8),
        (flalg, list(flalg.alphabet.words(4, minlen=1))),
    ]
    for B, corpus in corpora:
        for w in corpus:
            e = eulerian_idempotent(B, w)
            assert eulerian_idempotent(B, e) == e


def test_eulerian_idempotent_kills_products(qs3, alph3):
    words = list(alph3.words(2, minlen=1))
    for x, y in itertools.product(words, words):
        if len(x) + len(y) > 4:
            continue
        assert eulerian_idempotent(qs3, induced_product(qs3, x, y)) == LinComb.zero()


def test_varpi_is_letter_part_of_eulerian(qs3, alph3):
    for w in alph3.words(4, minlen=1):
        assert varpi(qs3, w) == letter_part(eulerian_idempotent(qs3, w))


def test_varpi_known_value(qs3, alph3):
    assert varpi(qs3, parse_word("x1.x2", alph3)) == parse_tensor("-1/2*x3", alph3)


def test_hoffman_closed_forms_match_recursions(qs3, alph3):
    for w in alph3.words(4, minlen=1):
        assert hoffman_log(qs3, w) == varpi(qs3, w)
        assert hoffman_exp(qs3, w) == letter_part(zeta_tilde(qs3, w))
    empty = alph3.empty_word()
    assert hoffman_log(qs3, empty) == LinComb.zero()
    assert hoffman_exp(qs3, empty) == LinComb.zero()


def test_hoffman_requires_quasi_shuffle(sh3, alph3):
    with pytest.raises(InputError, match="quasi_shuffle"):
        hoffman_log(sh3, parse_word("x1.x1", alph3))


@pytest.mark.parametrize("hoffman", [hoffman_log, hoffman_exp])
def test_hoffman_refuses_a_word_over_another_alphabet(hoffman, qs3):
    # the same letter names, of degree 1: not the letters of qs3
    w = parse_word("x1.x1", Alphabet("x1, x2, x3"))
    with pytest.raises(InputError, match="different alphabets"):
        hoffman(qs3, w)


@pytest.mark.parametrize("hoffman", [hoffman_log, hoffman_exp])
def test_hoffman_refuses_a_combination(hoffman, qs3, alph3):
    for text in ("3*x1.x1", "x1 + x2"):
        with pytest.raises(InputError, match="take a word, not a LinComb"):
            hoffman(qs3, parse_tensor(text, alph3))


def test_hoffman_refuses_length_before_mode(sh3, alph3):
    w = parse_word(".".join(["x1"] * (WORD_BOUND + 1)), alph3)
    with pytest.raises(SizeBoundError, match=f"stop at length {WORD_BOUND}$"):
        hoffman_log(sh3, w)
    with pytest.raises(InputError, match="quasi_shuffle"):
        hoffman_log(sh3, w[:WORD_BOUND])


def test_omega_tilde_known_value(qs3, alph3):
    w = parse_word("x1.x2", alph3)
    assert omega_tilde(qs3, w) == parse_tensor("x1.x2 + -1/2*x3", alph3)


def test_zeta_tilde_inverts_omega_tilde(qs3, flalg):
    for B, top in ((qs3, 3), (flalg, 4)):
        for w in B.alphabet.words(top, minlen=1):
            x = LinComb.single(w)
            assert zeta_tilde(B, omega_tilde(B, x)) == x
            assert omega_tilde(B, zeta_tilde(B, x)) == x


def test_omega_tilde_is_multiplicative_spot_check(qs3, alph3):
    from gebra.binfty import BInftyStructure

    sh = BInftyStructure.shuffle(alph3)
    x = parse_word("x1", alph3)
    y = parse_word("x1.x2", alph3)
    lhs = omega_tilde(qs3, induced_product(qs3, x, y))
    rhs = LinComb.zero()
    for (u, cu) in omega_tilde(qs3, x).items():
        for (v, cv) in omega_tilde(qs3, y).items():
            rhs = rhs + (cu * cv) * induced_product(sh, u, v)
    assert lhs == rhs


def test_zeta_matches_generic_inverse(qs3, alph3):
    from gebra.words import inverse_structure_endo

    def vp(w):
        if len(w) == 1:
            return LinComb.single(w)
        return varpi(qs3, w)

    for w in alph3.words(4, minlen=1):
        assert zeta_tilde(qs3, w) == inverse_structure_endo(vp, w)


def test_omega_tilde_is_a_coalgebra_map(qs3, alph3):
    from gebra.words import deconcat

    for w in alph3.words(3, minlen=1):
        lhs = LinComb.zero()
        for u, c in omega_tilde(qs3, w).items():
            lhs = lhs + c * deconcat(u)
        rhs = LinComb.zero()
        for (u, v), c in deconcat(w).items():
            for p, cp in omega_tilde(qs3, u).items():
                for q, cq in omega_tilde(qs3, v).items():
                    rhs = rhs + LinComb.single((p, q), c * cp * cq)
        assert lhs == rhs


def test_custom_endo_matches_default(qs3, alph3):
    for w in alph3.words(3, minlen=1):
        lifted = structure_endo(lambda u: letter_part(eulerian_idempotent(qs3, u)), w)
        assert lifted == omega_tilde(qs3, w)


def test_omega_tilde_naturality_under_semigroup_maps(qs8, alph8):
    """Doubling letters (capped at the top) is a semigroup map; the
    isomorphism commutes with its letterwise extension."""

    def F(w):
        idx = tuple(min(2 * (i + 1), 8) - 1 for i in w.idx)
        from gebra.words import Word

        return Word(alph8, idx)

    small = [w for w in alph8.words(3, minlen=1) if all(i < 4 for i in w.idx)]
    for w in small:
        lhs = omega_tilde(qs8, F(w))
        rhs = omega_tilde(qs8, w).map_keys(F)
        assert lhs == rhs


# -- the cut recursions against a plain enumeration of decompositions ---------

NONASSOC_TABLE = """mode: explicit
alphabet: a:1, b:1
bound: 6
a , a -> b
a , b -> a
b , a -> 2*a
a.a , b -> b
"""


def _decompositions(w, k):
    """Every cut of w into k nonempty blocks, from its k - 1 cut positions."""
    for cuts in itertools.combinations(range(1, len(w)), k - 1):
        bounds = (0,) + cuts + (len(w),)
        yield [w[a:b] for a, b in zip(bounds, bounds[1:])]


def oracle_product(B, x, w, memo):
    """x * w from the surjection oracle, which shares nothing with the
    kernel; memo holds the oracle's word-pair products."""
    out = LinComb.zero()
    for u, c in x.terms.items():
        if (u, w) not in memo:
            memo[(u, w)] = surjection_product_oracle(B, u, w)
        out = out + c * memo[(u, w)]
    return out


def _left_fold(B, blocks, memo):
    prod = LinComb.single(blocks[0])
    for b in blocks[1:]:
        prod = oracle_product(B, prod, b, memo)
    return prod


def enumerated_eulerian(B, w, memo):
    """e(w) as the sum over all 2^(n-1) decompositions, left fold each."""
    out = LinComb.zero()
    for k in range(1, len(w) + 1):
        for blocks in _decompositions(w, k):
            out = out + Fraction((-1) ** (k - 1), k) * _left_fold(B, blocks, memo)
    return out


def enumerated_varpi(B, w, memo):
    """varpi(w) as the sum of <b1, b2 * ... * bk> over all decompositions."""
    if len(w) == 1:
        return LinComb.single(w)
    out = LinComb.zero()
    for k in range(2, len(w) + 1):
        for blocks in _decompositions(w, k):
            tail = _left_fold(B, blocks[1:], memo)
            for v, c in tail.items():
                out = out + Fraction((-1) ** (k - 1), k) * c * B.bracket(blocks[0], v)
    return out


def _bench_corpora(qs3, sh3, flalg):
    """Every word of length <= 5 over the benchmark's four structures; on the
    six-letter shuffle alphabet its letters are distinct, as in the benchmark."""
    from gebra.binfty import BInftyStructure
    from gebra.words import Alphabet

    sh6 = BInftyStructure.shuffle(Alphabet("a, b, c, d, e, f"))
    distinct = [w for w in sh6.alphabet.words(5, minlen=1) if len(set(w.idx)) == len(w)]
    return [
        (qs3, list(qs3.alphabet.words(5, minlen=1))),
        (sh3, list(sh3.alphabet.words(5, minlen=1))),
        (flalg, list(flalg.alphabet.words(5, minlen=1))),
        (sh6, distinct),
    ]


def test_recursions_match_enumeration_on_bench_structures(qs3, sh3, flalg):
    for B, corpus in _bench_corpora(qs3, sh3, flalg):
        memo = {}
        for w in corpus:
            assert eulerian_idempotent(B, w) == enumerated_eulerian(B, w, memo), (B.mode, w)
            assert varpi(B, w) == enumerated_varpi(B, w, memo), (B.mode, w)


def test_recursions_keep_the_left_fold_on_a_nonassociative_table():
    from gebra.binfty import check_axioms, parse_bracket_file

    B = parse_bracket_file(NONASSOC_TABLE)
    assert check_axioms(B, 3)["assoc"] is False
    memo = {}
    for w in B.alphabet.words(5, minlen=1):
        assert eulerian_idempotent(B, w) == enumerated_eulerian(B, w, memo), w
        assert varpi(B, w) == enumerated_varpi(B, w, memo), w


def test_zeta_inverts_omega_on_bench_structures(qs3, sh3, flalg):
    for B, corpus in _bench_corpora(qs3, sh3, flalg):
        for w in corpus:
            x = LinComb.single(w)
            assert zeta_tilde(B, omega_tilde(B, x)) == x, (B.mode, w)


def test_word_past_the_table_bound_still_raises():
    from gebra.binfty import parse_bracket_file

    B = parse_bracket_file(NONASSOC_TABLE.replace("bound: 6", "bound: 2"))
    fits = parse_word("a.b.a", B.alphabet)
    memo = {}
    assert eulerian_idempotent(B, fits) == enumerated_eulerian(B, fits, memo)
    assert varpi(B, fits) == enumerated_varpi(B, fits, memo)
    past = parse_word("a.b.a.a", B.alphabet)
    for fn in (eulerian_idempotent, varpi, omega_tilde, zeta_tilde):
        with pytest.raises(InputError, match="outside the table bound"):
            fn(B, past)
    with pytest.raises(InputError, match="outside the table bound"):
        enumerated_eulerian(B, past, {})


def test_out_of_bound_error_names_the_first_visited_pair():
    """The pair named follows the order of the cut recursions."""
    from gebra.binfty import parse_bracket_file

    tables = {
        1: NONASSOC_TABLE.replace("a.a , b -> b\n", "").replace("bound: 6", "bound: 1"),
        2: NONASSOC_TABLE.replace("bound: 6", "bound: 2"),
    }
    cases = [
        (1, eulerian_idempotent, "a.b.a.a", "(a, b.a)"),
        (1, eulerian_idempotent, "b.a.b", "(b, a.b)"),
        (1, varpi, "a.b.a.a", "(b, a.a)"),
        (1, varpi, "b.b.a.b", "(b, a.b)"),
        (1, omega_tilde, "a.b.a.a", "(a, b.a)"),
        (1, zeta_tilde, "b.a.a.b", "(b, a.a)"),
        (2, eulerian_idempotent, "a.b.a.a", "(a, b.a.a)"),
        (2, varpi, "a.b.a.a", "(a, a.a.b)"),
        (2, varpi, "b.b.a.b", "(b, b.a.b)"),
        (2, omega_tilde, "a.b.a.a", "(a, a.a.b)"),
        (2, zeta_tilde, "b.a.a.b", "(b, a.b.a)"),
    ]
    for bound, fn, text, pair in cases:
        B = parse_bracket_file(tables[bound])
        with pytest.raises(InputError) as exc:
            fn(B, parse_word(text, B.alphabet))
        assert str(exc.value) == f"bracket evaluated outside the table bound {bound}: {pair}"


def test_recursions_match_enumeration_on_random_rational_tables(random_tables):
    """e and varpi against the enumerations, and zeta against omega, on
    eight random tables with rational, negative and cancelling brackets."""
    for B in random_tables:
        memo = {}
        for w in B.alphabet.words(4, minlen=1):
            assert eulerian_idempotent(B, w) == enumerated_eulerian(B, w, memo), w
            assert varpi(B, w) == enumerated_varpi(B, w, memo), w
            x = LinComb.single(w)
            assert zeta_tilde(B, omega_tilde(B, x)) == x, w
            assert omega_tilde(B, zeta_tilde(B, x)) == x, w


def test_mixed_alphabets_raise(qs3, sh3, alph3):
    from gebra.words import Alphabet

    other = Alphabet("x1:1, x2:2, y:3")
    mixed = LinComb.single(parse_word("x1.x2", alph3)) + LinComb.single(parse_word("y", other))
    for B in (qs3, sh3):
        for fn in (eulerian_idempotent, varpi, omega_tilde, zeta_tilde):
            with pytest.raises(InputError, match="different alphabets"):
                fn(B, mixed)
    for fn in (eulerian_idempotent, varpi, omega_tilde, zeta_tilde):
        with pytest.raises(InputError, match="different alphabets"):
            fn(qs3, parse_word("x1.y", other))


# -- the shuffle closed form of e against the fold route and the descent layer


def left_fold_eulerian(B, x):
    """e(x) by the cut recursion over left-folded block products, the route
    every structure other than the shuffle still takes."""
    from math import lcm

    from gebra.exactlin import term_sum
    from gebra.idem import _left_fold_sum, _signed_reciprocals
    from gebra.words import word_comb

    alphabet, terms, d = B.index_terms(x)
    scale = lcm(*range(1, max(map(len, terms), default=0) + 1))
    memo = {}
    out = term_sum(
        (c, _left_fold_sum(B, w, _signed_reciprocals(len(w), scale), memo).items())
        for w, c in terms.items()
    )
    return word_comb(alphabet, out, d * scale)


def _standard_word(n):
    from gebra.binfty import BInftyStructure
    from gebra.words import Alphabet

    B = BInftyStructure.shuffle(Alphabet(", ".join(f"l{i}" for i in range(1, n + 1))))
    return B, parse_word(".".join(B.alphabet.letters), B.alphabet)


@pytest.mark.parametrize("n", range(1, 8))
def test_shuffle_closed_form_matches_the_fold_on_standard_words(n):
    B, w = _standard_word(n)
    e = eulerian_idempotent(B, w)
    assert e == left_fold_eulerian(B, w)
    assert len(e) == [1, 2, 6, 24, 120, 720, 5040][n - 1]


def test_shuffle_closed_form_matches_the_fold_on_three_letters(sh3):
    """Every word of length <= 6 over three letters, repeated letters
    merging and cancelling, then rational combinations with the unit word."""
    import random

    corpus = list(sh3.alphabet.words(6))
    for w in corpus:
        assert eulerian_idempotent(sh3, w) == left_fold_eulerian(sh3, w), w
    assert eulerian_idempotent(sh3, sh3.alphabet.empty_word()) == LinComb.zero()
    rng = random.Random(9)
    coeffs = [Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(7)]
    for _ in range(60):
        x = LinComb.zero()
        for w in rng.sample(corpus, rng.randint(1, 4)):
            x = x + LinComb.single(w, rng.choice(coeffs))
        assert eulerian_idempotent(sh3, x) == left_fold_eulerian(sh3, x), x


@pytest.mark.parametrize("n", range(1, 7))
def test_shuffle_closed_form_is_solomons_idempotent(n):
    """On distinct letters e is descent.solomon(n) acting by place
    permutation: letter i goes to place p(i), with the coefficient of p.
    Permutation.act reads letter p(j) into place j, hence the inverse."""
    from gebra import descent

    B, w = _standard_word(n)
    expected = LinComb({p.inverse().act(w): c for p, c in descent.solomon(n).terms.items()})
    assert eulerian_idempotent(B, w) == expected


# -- varpi and zeta kept on the structure -------------------------------------


def _word_side_ops(rng, structures, count):
    """A seeded mix of omega, zeta, varpi, e and prod ops over structures."""
    kinds = ("omega", "zeta", "varpi", "eulerian", "prod")
    ops = []
    for _ in range(count):
        name = rng.choice(sorted(structures))
        letters = structures[name].alphabet.letters
        word = ".".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        ops.append((rng.choice(kinds), name, word))
    return ops


def _run_word_side_op(B, kind, text):
    from gebra.exactlin import AlgebraError, format_terms

    w = parse_word(text, B.alphabet)
    try:
        if kind == "prod":
            x = induced_product(B, w[:2], w[2:])
        elif kind == "zeta":
            x = zeta_tilde(B, omega_tilde(B, w) + LinComb.single(w, Fraction(1, 3)))
        else:
            x = {"omega": omega_tilde, "varpi": varpi, "eulerian": eulerian_idempotent}[kind](B, w)
    except AlgebraError as exc:
        return f"{type(exc).__name__}: {exc}"
    return format_terms(x)


def _fresh(B):
    """A copy of B with no kept values, so nothing B keeps is shared."""
    fresh = copy.copy(B)
    fresh.letter_maps = {}
    return fresh


def test_kept_values_print_the_same_bytes_cold_warm_and_reversed(random_tables):
    import random

    from gebra.binfty import parse_bracket_file

    texts = {
        "nonassoc": NONASSOC_TABLE,
        "bound2": NONASSOC_TABLE.replace("bound: 6", "bound: 2"),
        "qs": "mode: qshuffle\nalphabet: x:1, y:2\nx * x = y\nx * y = y\ny * x = y\ny * y = y\n",
        "sh": "mode: shuffle\nalphabet: a, b, c\n",
    }
    tables = {name: parse_bracket_file(text) for name, text in texts.items()}
    tables.update((f"random{i}", B) for i, B in enumerate(random_tables[:3]))
    ops = _word_side_ops(random.Random(11), tables, 400)
    cold = [_run_word_side_op(_fresh(tables[name]), kind, w) for kind, name, w in ops]
    assert any(out.startswith("InputError") for out in cold)
    warm = {name: _fresh(B) for name, B in tables.items()}
    assert [_run_word_side_op(warm[name], kind, w) for kind, name, w in ops] == cold
    assert [_run_word_side_op(warm[name], kind, w) for kind, name, w in ops] == cold
    rev = {name: _fresh(B) for name, B in tables.items()}
    assert [_run_word_side_op(rev[name], kind, w) for kind, name, w in reversed(ops)] == cold[::-1]
    for B in warm.values():
        assert set(B.letter_maps) == {"varpi", "zeta"}
        for values in B.letter_maps.values():
            for value in values.values():
                assert all(len(u) == 1 for u in value)
                assert len(value) <= len(B.alphabet)


def test_an_error_is_never_kept():
    from gebra.binfty import parse_bracket_file

    B = parse_bracket_file(NONASSOC_TABLE.replace("bound: 6", "bound: 2"))
    past = parse_word("b.a.a.b", B.alphabet)
    fits = parse_word("a.b.a", B.alphabet)
    for fn in (varpi, omega_tilde, zeta_tilde):
        fresh = parse_bracket_file(NONASSOC_TABLE.replace("bound: 6", "bound: 2"))
        with pytest.raises(InputError) as first:
            fn(fresh, past)
        for _ in range(3):
            fn(B, fits)
            with pytest.raises(InputError) as again:
                fn(B, past)
            assert str(again.value) == str(first.value)
        for values in B.letter_maps.values():
            assert past.idx not in values


def test_structures_never_share_kept_values():
    from gebra.binfty import BInftyStructure
    from gebra.words import Alphabet

    alphabet = Alphabet("a, b")
    a, b = alphabet.word("a"), alphabet.word("b")
    tables = [
        {(a, a): LinComb.single(b)},
        {(a, a): LinComb.single(a, Fraction(-2)), (a, b): LinComb.single(b)},
    ]
    first, second = (BInftyStructure.explicit(alphabet, t, bound=4) for t in tables)
    corpus = list(alphabet.words(4, minlen=1))
    for fn in (varpi, omega_tilde, zeta_tilde):
        seen = [fn(first, w) for w in corpus]
        after = [fn(second, w) for w in corpus]
        cold = [fn(BInftyStructure.explicit(alphabet, tables[1], bound=4), w) for w in corpus]
        assert after == cold
        assert after != seen
    assert first.letter_maps is not second.letter_maps
