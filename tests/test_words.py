"""Alphabets, words, deconcatenation, and the cofree machinery."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from gebra.exactlin import InputError, LinComb, format_terms
from gebra.words import (
    Alphabet,
    LetterMap,
    Word,
    alphabet_of,
    as_tensor,
    block_decompositions,
    cofree_lift,
    concat_expand,
    coradical_degree,
    deconcat,
    inverse_structure_endo,
    parse_tensor,
    parse_word,
    reduced_coproduct_iter,
    structure_endo,
    word_comb,
)


@pytest.fixture(scope="module")
def ab():
    return Alphabet("a:1, b:2")


def test_alphabet_parsing(ab):
    assert len(ab) == 2
    assert ab.degrees == (1, 2)
    assert ab.index("b") == 1
    assert Alphabet(["u", "v"]).degrees == (1, 1)


def test_alphabet_rejects_bad_specs():
    with pytest.raises(InputError, match="bad letter name"):
        Alphabet("1x:1")
    with pytest.raises(InputError, match="duplicate"):
        Alphabet("a:1, a:2")
    with pytest.raises(InputError, match=">= 1"):
        Alphabet("a:0")
    with pytest.raises(InputError, match="empty alphabet"):
        Alphabet("")
    with pytest.raises(InputError, match="unknown letter"):
        Alphabet("a:1").index("z")


def test_word_basics(ab):
    w = parse_word("a.b.a", ab)
    assert len(w) == 3
    assert w.degree == 4
    assert str(w) == "a.b.a"
    assert str(ab.empty_word()) == "1"
    assert w[:2] == parse_word("a.b", ab)
    assert w * ab.empty_word() == w


def test_word_order_is_by_length_then_index(ab):
    ws = [parse_word(t, ab) for t in ("b", "a.a", "a", "1", "b.a")]
    assert [str(w) for w in sorted(ws)] == ["1", "a", "b", "a.a", "b.a"]


def test_word_comb_stores_words_in_printed_order_with_one_fraction_per_value(ab):
    terms = {(1, 0): 2, (0,): 2, (0, 1, 1): -3, (1,): 2, (0, 0): 4, (1, 1): -3}
    x = word_comb(ab, terms, 4)
    assert x == LinComb({Word(ab, t): Fraction(v, 4) for t, v in terms.items()})
    assert list(x.terms.items()) == x.items()
    assert len({id(c) for c in x.terms.values()}) == 3
    assert format_terms(x) == "1/2*a + 1/2*b + a.a + 1/2*b.a + -3/4*b.b + -3/4*a.b.b"


def test_parse_word_errors(ab):
    with pytest.raises(InputError, match="empty word text"):
        parse_word("", ab)
    with pytest.raises(InputError, match="unknown letter"):
        parse_word("a.z", ab)


def test_parse_tensor_roundtrip(ab):
    x = parse_tensor("2*a.b + -1/2*b + 1", ab)
    assert x.coeff(parse_word("a.b", ab)) == 2
    assert x.coeff(ab.empty_word()) == 1
    assert parse_tensor(format_terms(x), ab) == x


def test_block_decompositions_counts(ab):
    w = parse_word("a.a.b.a", ab)
    from math import comb

    for k in range(1, 5):
        assert sum(1 for _ in block_decompositions(w, k)) == comb(3, k - 1)
    assert list(block_decompositions(w, 5)) == []


def test_deconcat_counts(ab):
    w = parse_word("a.b.a", ab)
    dc = deconcat(w)
    assert sum(dc.terms.values()) == len(w) + 1


def test_deconcat_coassociativity_corpus():
    abc = Alphabet("a:1, b:1, c:1")
    for w in abc.words(6):
        left = LinComb.zero()
        right = LinComb.zero()
        for (u, v), c in deconcat(w).items():
            for (p, q), d in deconcat(u).items():
                left = left + LinComb.single((p, q, v), c * d)
            for (p, q), d in deconcat(v).items():
                right = right + LinComb.single((u, p, q), c * d)
        assert left == right


def test_iterated_reduced_coproduct_recursion():
    # splitting into k+1 blocks = splitting the left block of a k-split again
    abc = Alphabet("a:1, b:1, c:1")
    for w in abc.words(6, minlen=1):
        for k in range(1, 4):
            direct = reduced_coproduct_iter(w, k + 1)
            step = LinComb.zero()
            for blocks, c in reduced_coproduct_iter(w, k).items():
                for (u, v), d in reduced_coproduct_iter(blocks[0], 2).items():
                    step = step + LinComb.single((u, v) + blocks[1:], c * d)
            assert direct == step


def test_reduced_coproduct_iter(ab):
    w = parse_word("a.b.a", ab)
    d2 = reduced_coproduct_iter(w, 2)
    assert d2.coeff((parse_word("a", ab), parse_word("b.a", ab))) == 1
    assert len(d2) == 2
    assert reduced_coproduct_iter(w, 4) == LinComb.zero()
    assert reduced_coproduct_iter(w, 1) == LinComb.single((w,))
    with pytest.raises(InputError, match="not augmentation-reduced"):
        reduced_coproduct_iter(LinComb.single(ab.empty_word()), 2)
    with pytest.raises(InputError, match="k >= 1"):
        reduced_coproduct_iter(w, 0)


def test_coradical_degree(ab):
    x = parse_tensor("a + 3*b.a.b", ab)
    assert coradical_degree(x) == 3
    assert coradical_degree(parse_word("a", ab)) == 1
    with pytest.raises(InputError, match="zero element"):
        coradical_degree(LinComb.zero())


def test_letter_map_partiality(ab):
    a = parse_word("a", ab)
    aa = parse_word("a.a", ab)
    m = LetterMap(ab, {aa: LinComb.single(parse_word("b", ab))}, identity_on_letters=True)
    assert m(a) == LinComb.single(a)
    assert m(aa) == LinComb.single(parse_word("b", ab))
    bare = LetterMap(ab, {})
    with pytest.raises(InputError, match="partial map"):
        bare(a)


def test_letter_map_values_must_be_letters(ab):
    aa = parse_word("a.a", ab)
    with pytest.raises(InputError):
        LetterMap(ab, {aa: LinComb.single(aa)})


def test_concat_expand(ab):
    a = parse_word("a", ab)
    b = parse_word("b", ab)
    fs = [LinComb.single(a) + LinComb.single(b), LinComb.single(a, Fraction(2))]
    assert concat_expand(fs, ab) == parse_tensor("2*a.a + 2*b.a", ab)
    assert concat_expand([LinComb.zero()], ab) == LinComb.zero()


def words_over(ab, maxlen):
    return list(ab.words(maxlen))


def pw_table(ab):
    """The projection fixing letters and sending a.a to b, zero elsewhere."""
    table = {parse_word("a.a", ab): LinComb.single(parse_word("b", ab))}

    def pw(w):
        if len(w) == 1:
            return LinComb.single(w)
        return table.get(w, LinComb.zero())

    return pw


def test_structure_endo_known_values(ab):
    pw = pw_table(ab)
    assert structure_endo(pw, parse_word("a.a", ab)) == parse_tensor("a.a + b", ab)
    assert structure_endo(pw, parse_word("a.a.a", ab)) == parse_tensor(
        "a.a.a + a.b + b.a", ab
    )
    assert structure_endo(pw, parse_word("b.a", ab)) == parse_tensor("b.a", ab)


def test_structure_endo_requires_letters_fixed(ab):
    bad = LetterMap(ab, {parse_word("a", ab): LinComb.single(parse_word("b", ab)),
                         parse_word("b", ab): LinComb.single(parse_word("b", ab))})
    with pytest.raises(InputError, match="must fix the letter"):
        structure_endo(bad, parse_word("a", ab))


def test_structure_endo_is_unipotent_and_invertible(ab):
    pw = pw_table(ab)
    for w in words_over(ab, 4):
        x = structure_endo(pw, w)
        # identity plus strictly shorter words
        assert x.coeff(w) == 1
        assert all(len(u) <= len(w) for u in x.terms)
        assert inverse_structure_endo(pw, x) == LinComb.single(w)
        assert structure_endo(pw, inverse_structure_endo(pw, w)) == LinComb.single(w)


def test_inverse_structure_endo_known_value(ab):
    pw = pw_table(ab)
    assert inverse_structure_endo(pw, parse_word("a.a", ab)) == parse_tensor(
        "a.a + -1*b", ab
    )


def test_cofree_lift_is_counital_coalgebra_map(ab):
    pw = pw_table(ab)
    # compatible with deconcatenation: deconcat(Phi(w)) = (Phi x Phi)(deconcat w)
    for w in words_over(ab, 3):
        lhs = LinComb.zero()
        for u, c in cofree_lift(pw, w).items():
            lhs = lhs + c * deconcat(u)
        rhs = LinComb.zero()
        for (u, v), c in deconcat(w).items():
            for (p, cp) in cofree_lift(pw, u).items():
                for (q, cq) in cofree_lift(pw, v).items():
                    rhs = rhs + LinComb.single((p, q), c * cp * cq)
        assert lhs == rhs


def test_random_projections_invert():
    import random

    rng = random.Random(96816)
    ab = Alphabet("a:1, b:1")
    letters = [LinComb.single(ab.letter(i)) for i in range(2)]
    corpus = list(ab.words(5, minlen=1))
    for trial in range(20):
        table = {}
        for w in corpus:
            if len(w) == 1:
                continue
            val = LinComb.zero()
            for letter in letters:
                c = rng.randint(-2, 2)
                if c:
                    val = val + letter.scale(Fraction(c))
            table[w] = val

        def pi(w, table=table):
            if len(w) == 1:
                return LinComb.single(w)
            return table.get(w, LinComb.zero())

        for w in rng.sample(corpus, 12):
            assert inverse_structure_endo(pi, structure_endo(pi, w)) == LinComb.single(w)
            assert structure_endo(pi, inverse_structure_endo(pi, w)) == LinComb.single(w)


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=5))
def test_word_str_parse_roundtrip(letters):
    ab = Alphabet("a:1, b:2")
    w = parse_word(".".join(letters), ab)
    assert parse_word(str(w), ab) == w
    assert alphabet_of(as_tensor(w)) is ab or alphabet_of(as_tensor(w)) == ab


def test_cofree_lift_matches_block_enumeration_with_rational_values():
    """The cut recursion against the sum over block_decompositions, for a
    map with rational, negative and zero values and a rational input."""
    import random

    rng = random.Random(7)
    abc = Alphabet("a:1, b:1, c:1")
    coeffs = [Fraction(c) for c in ("-3/2", "-1", "1/3", "2", "5/4")]
    table = {}
    for w in abc.words(4, minlen=2):
        val = LinComb.zero()
        for i in rng.sample(range(3), rng.randint(0, 2)):
            val = val + LinComb.single(abc.letter(i), rng.choice(coeffs))
        table[w] = val

    def pi(w):
        return LinComb.single(w) if len(w) == 1 else table[w]

    def enumerated(w):
        out = LinComb.zero()
        for k in range(1, len(w) + 1):
            for blocks in block_decompositions(w, k):
                out = out + concat_expand([pi(b) for b in blocks], abc)
        return out

    corpus = rng.sample(list(abc.words(4, minlen=1)), 30)
    for w in corpus:
        assert cofree_lift(pi, w) == enumerated(w), w
    x = parse_tensor("2 + 1/2*a.b.c + -3*c.a.a.b + 5/6*b", abc)
    want = LinComb.single(abc.empty_word(), Fraction(2))
    for w, c in x.items():
        if len(w):
            want = want + c * enumerated(w)
    assert cofree_lift(pi, x) == want


def test_lift_refuses_values_over_another_alphabet(ab):
    other = Alphabet("a:1, z:1")
    with pytest.raises(InputError, match="different alphabets"):
        cofree_lift(lambda w: LinComb.single(other.letter(1)), parse_word("a.b", ab))
    mixed = LinComb.single(parse_word("a", ab)) + LinComb.single(parse_word("z", other))
    with pytest.raises(InputError, match="different alphabets"):
        cofree_lift(LetterMap(ab, identity_on_letters=True), mixed)
