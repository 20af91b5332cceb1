"""Descent classes, Solomon and Dynkin elements, and the two products."""

import itertools
import random

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from gebra.exactlin import InputError, LinComb, Poly, SizeBoundError, lin_sum
from gebra.words import Alphabet, block_decompositions, parse_word, reduced_coproduct_iter
from gebra.binfty import BInftyStructure, check_axioms
from gebra.topo import QuasiOrder, closed_form_e, delta_bar_tuples, set_partitions, surjection_count
from gebra.descent import (
    DescElem,
    GroupAlgElem,
    Permutation,
    act_on_tensor,
    composition_from_subset,
    compositions,
    convolution,
    de_equal,
    de_subset,
    desc_coproduct,
    dynkin,
    dynkin_desc,
    internal_product,
    lie_projection_check,
    parse_composition,
    parse_group_alg,
    parse_permutation,
    permutations_of,
    solomon,
    solomon_desc,
    solomon_log_oracle,
    solomon_log_series,
    subset_from_composition,
)


def S(n, *positions):
    """Descent index set: the given positions plus the mandatory n."""
    return frozenset(positions) | {n}


def ga(text):
    return parse_group_alg(text)


def test_permutation_basics():
    p = parse_permutation("3 1 2")
    assert p.n == 3
    assert p(1) == 3
    assert p.inverse() == parse_permutation("2 3 1")
    assert p.descent_set() == {1}
    assert str(p) == "3 1 2"
    assert len(list(permutations_of(4))) == 24
    with pytest.raises(InputError):
        parse_permutation("1 3")
    with pytest.raises(InputError):
        parse_permutation("0 1")


@pytest.mark.parametrize(
    "make",
    [
        lambda v: Permutation([v, 1]),
        dynkin_desc,
        solomon_desc,
        GroupAlgElem,
        lambda v: DescElem(v, {}),
        lambda v: Alphabet([("a", v), "b"]),
        lambda v: BInftyStructure.explicit(Alphabet("a"), {}, bound=v),
        lambda v: Poly({v: 1}),
        lambda v: check_axioms(BInftyStructure.shuffle(Alphabet("a")), v),
        lambda v: reduced_coproduct_iter(parse_word("a.a", Alphabet("a")), v),
        lambda v: surjection_count(v, 1),
        lambda v: surjection_count(2, v),
        lambda v: closed_form_e("ladder", v),
        lambda v: list(set_partitions(v)),
        lambda v: list(compositions(v)),
        lambda v: list(block_decompositions(parse_word("a.a", Alphabet("a")), v)),
        lambda v: list(delta_bar_tuples(QuasiOrder(2), v)),
    ],
    ids=["Permutation", "dynkin_desc", "solomon_desc", "GroupAlgElem", "DescElem",
         "Alphabet-degree", "BInftyStructure-bound", "Poly-exponent",
         "check_axioms-budget", "reduced_coproduct_iter-k", "surjection_count-n",
         "surjection_count-k", "closed_form_e-n", "set_partitions-n",
         "compositions-n", "block_decompositions-k", "delta_bar_tuples-k"],
)
@pytest.mark.parametrize("v", [1.5, 2.0, "2"])
def test_constructors_refuse_non_integers(make, v):
    with pytest.raises(InputError, match="integer"):
        make(v)


def test_then_convention():
    # (p then q)(i) = q(p(i))
    p = parse_permutation("2 1 3")
    q = parse_permutation("1 3 2")
    assert p.then(q) == parse_permutation("3 1 2")
    assert q.then(p) == parse_permutation("2 3 1")


def test_act_places_letters():
    ab = Alphabet("u:1, v:1, w:1")
    word = parse_word("u.v.w", ab)
    p = parse_permutation("3 1 2")
    assert str(p.act(word)) == "w.u.v"


def test_act_is_compatible_with_internal_product():
    ab = Alphabet("u:1, v:1, w:1")
    word = LinComb.single(parse_word("u.v.w", ab))
    for p in permutations_of(3):
        for q in permutations_of(3):
            g = GroupAlgElem.single(p)
            h = GroupAlgElem.single(q)
            lhs = act_on_tensor(internal_product(g, h), word)
            rhs = act_on_tensor(g, act_on_tensor(h, word))
            assert lhs == rhs


def test_convolution_deshuffles_then_concatenates():
    # act(g * h) on a word: pick the positions handed to g in every way,
    # act on the two subwords, concatenate
    from itertools import combinations

    ab = Alphabet("u:1, v:1, w:1")
    word = parse_word("u.v.w", ab)
    for p in permutations_of(2):
        for q in permutations_of(1):
            g, h = GroupAlgElem.single(p), GroupAlgElem.single(q)
            lhs = act_on_tensor(convolution(g, h), LinComb.single(word))
            rhs = LinComb.zero()
            for I in combinations(range(3), 2):
                J = tuple(sorted(set(range(3)) - set(I)))
                sub = ab.word(".".join(word.names[i] for i in I))
                rest = ab.word(".".join(word.names[j] for j in J))
                for u, cu in act_on_tensor(g, LinComb.single(sub)).items():
                    for v, cv in act_on_tensor(h, LinComb.single(rest)).items():
                        rhs = rhs + LinComb.single(u * v, cu * cv)
            assert lhs == rhs


def test_convolution_golden_values():
    id2 = GroupAlgElem.single(Permutation.identity(2))
    id1 = GroupAlgElem.single(Permutation.identity(1))
    assert convolution(id2, id1) == ga("1 2 3 + 1 3 2 + 2 3 1")
    assert convolution(id2, id1) == de_subset(3, S(3, 2))
    got = convolution(de_equal(2, S(2, 1)), de_equal(2, S(2)))
    want = (DescElem(4, {(1, 1, 2): 1}) + DescElem(4, {(1, 3): 1})).expand()
    assert got == want


def test_de_bases_and_moebius():
    assert de_subset(3, S(3)) == ga("1 2 3")
    assert de_equal(3, S(3, 1)) == ga("2 1 3 + 3 1 2")
    assert de_subset(3, S(3, 1, 2)).coeff(parse_permutation("3 2 1")) == 1
    assert len(de_subset(3, S(3, 1, 2)).terms) == 6
    d = DescElem(4, {(2, 2): 1}) - DescElem(4, {(1, 3): 1})
    assert DescElem.from_subset(4, d.to_subset()) == d


def test_de_index_set_validation():
    with pytest.raises(InputError, match="must contain n"):
        de_equal(3, frozenset({1}))
    with pytest.raises(InputError):
        de_subset(3, frozenset({0, 3}))


def test_compositions_order_and_subset_conversion():
    assert list(compositions(3)) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    for n in range(1, 6):
        for c in compositions(n):
            assert composition_from_subset(n, subset_from_composition(c)) == c


def test_solomon_golden_degree_three():
    sol = solomon(3)
    assert sol.coeff(parse_permutation("1 2 3")) == Fraction(1, 3)
    assert sol.coeff(parse_permutation("2 1 3")) == Fraction(-1, 6)
    assert sol.coeff(parse_permutation("3 1 2")) == Fraction(-1, 6)
    assert sol.coeff(parse_permutation("1 3 2")) == Fraction(-1, 6)
    assert sol.coeff(parse_permutation("2 3 1")) == Fraction(-1, 6)
    assert sol.coeff(parse_permutation("3 2 1")) == Fraction(1, 3)


def test_dynkin_golden_degree_three():
    assert dynkin(3) == ga("1 2 3 + -1*2 1 3 + -1*3 1 2 + 3 2 1")
    assert dynkin(1) == ga("1")


def test_solomon_matches_log_oracle():
    for n in range(1, 6):
        assert solomon(n) == solomon_log_oracle(n)


def test_solomon_is_idempotent():
    for n in range(1, 5):
        sol = solomon(n)
        assert internal_product(sol, sol) == sol


def test_dynkin_is_quasi_idempotent():
    for n in range(1, 5):
        dyn = dynkin(n)
        assert internal_product(dyn, dyn) == dyn * n


def is_primitive(d):
    for (left, right), c in desc_coproduct(d).items():
        if left and right and c:
            return False
    return True


def test_solomon_and_dynkin_are_primitive():
    for n in range(1, 5):
        assert is_primitive(DescElem.from_group_alg(solomon(n)))
        assert is_primitive(DescElem.from_group_alg(dynkin(n)))
    assert not is_primitive(DescElem(3, {(1, 2): 1}))


def test_descent_span_is_closed_under_internal_product():
    got = internal_product(de_subset(3, S(3, 1)), de_subset(3, S(3, 2)))
    d = DescElem.from_group_alg(got)
    want = (
        DescElem(3, {(1, 1, 1): 1})
        + DescElem(3, {(1, 2): 1}).scale(2)
        + DescElem(3, {(2, 1): 1})
        + DescElem(3, {(3,): 1}).scale(2)
    )
    assert d == want
    for a in compositions(3):
        for b in compositions(3):
            prod = internal_product(
                DescElem(3, {a: 1}).expand(), DescElem(3, {b: 1}).expand()
            )
            DescElem.from_group_alg(prod)  # must not raise


def test_mackey_product_matches_internal_product():
    # rows of the Mackey matrices carry the left factor, and r(M) reads
    # them row by row; the column-by-column reading fails at n = 3
    for n in range(1, 6):
        basis = {c: DescElem.from_subset(n, {c: 1}) for c in compositions(n)}
        expanded = {c: b.expand() for c, b in basis.items()}
        for p in basis:
            for q in basis:
                got = basis[p].internal_product(basis[q])
                assert got.expand() == internal_product(expanded[p], expanded[q]), (p, q)


def test_expand_matches_de_equal():
    # every equal-basis element up to n = 6, and Solomon and Dynkin at n = 7,
    # against the de_equal sums over validated Permutations, and back
    elements = [DescElem(n, {c: 1}) for n in range(1, 7) for c in compositions(n)]
    elements += [solomon_desc(7), dynkin_desc(7)]
    for d in elements:
        got = d.expand()
        want = lin_sum(
            (c, de_equal(d.n, subset_from_composition(comp)).terms)
            for comp, c in d.terms.terms.items()
        )
        assert got.n == d.n
        assert got.terms == want
        assert DescElem.from_group_alg(got) == d
        assert list(got.terms.terms) == sorted(want.terms)  # built in output order


def test_trusted_permutations_equal_parsed_ones():
    g = solomon(5)  # every permutation of 1..5 carries a coefficient
    assert len(g.terms) == 120
    for p in g.terms.terms:
        q = parse_permutation(str(p))
        assert p == q
        assert hash(p) == hash(q)
        assert g.coeff(q) == g.coeff(p) != 0
        assert type(p.images) is tuple and all(type(i) is int for i in p.images)
    assert Permutation.trusted((2, 1, 3)) == Permutation([2, 1, 3])
    assert {Permutation.trusted((2, 1, 3)): 1}[Permutation((2, 1, 3))] == 1


def test_descent_elements_match_their_expansions():
    for n in range(1, 6):
        sol, dyn = solomon_desc(n), dynkin_desc(n)
        assert sol == DescElem.from_group_alg(solomon(n))
        assert dyn == DescElem.from_group_alg(dynkin(n))
        assert sol == solomon_log_series(n)
        assert solomon_log_series(n).expand() == solomon_log_oracle(n)
        assert sol.internal_product(sol) == sol
        assert dyn.internal_product(dyn) == dyn.scale(n)


def test_from_group_alg_rejects_non_descent_elements():
    with pytest.raises(InputError, match="not in the descent span"):
        DescElem.from_group_alg(ga("2 1 3"))


def test_convolution_closure_in_the_descent_span():
    for p in range(1, 5):
        for q in range(1, 6 - p):
            for c in compositions(p):
                for d in compositions(q):
                    g = DescElem(p, {c: 1}).expand()
                    h = DescElem(q, {d: 1}).expand()
                    DescElem.from_group_alg(convolution(g, h))  # must not raise


def test_de_subset_is_convolution_of_identity_blocks():
    for n in range(1, 6):
        for c in compositions(n):
            acc = GroupAlgElem.single(Permutation.identity(c[0]))
            for part in c[1:]:
                acc = convolution(acc, GroupAlgElem.single(Permutation.identity(part)))
            assert acc == de_subset(n, subset_from_composition(c))


def test_identity_coefficient_normalization():
    # in the subset basis the coefficient of the full one-part composition
    # is 1 for solomon and n for dynkin
    for n in range(1, 6):
        sol = DescElem.from_group_alg(solomon(n)).to_subset()
        assert sol.coeff((n,)) == 1
        dyn = DescElem.from_group_alg(dynkin(n)).to_subset()
        assert dyn.coeff((n,)) == n


def test_convolution_concatenates_subset_basis():
    for c in ((1, 1), (2,)):
        for d in ((1,), (2, 1)):
            lhs = convolution(
                DescElem.from_subset(sum(c), {c: 1}).expand(),
                DescElem.from_subset(sum(d), {d: 1}).expand(),
            )
            rhs = DescElem.from_subset(sum(c) + sum(d), {c + d: 1}).expand()
            assert lhs == rhs


def test_desc_coproduct_splits_parts():
    got = desc_coproduct(DescElem(2, {(2,): 1}))
    assert got.coeff(((), (2,))) == 1
    assert got.coeff(((1,), (1,))) == 1
    assert got.coeff(((2,), ())) == 1
    assert len(got) == 3


def test_desc_coproduct_is_coassociative():
    def subset_elem(comp):
        return DescElem.from_subset(sum(comp), {comp: Fraction(1)})

    for n in range(1, 6):
        for c in compositions(n):
            left = LinComb.zero()
            right = LinComb.zero()
            for (a, b), co in desc_coproduct(subset_elem(c)).items():
                for (a1, a2), ci in desc_coproduct(subset_elem(a)).items():
                    left = left + LinComb.single((a1, a2, b), co * ci)
                for (b1, b2), ci in desc_coproduct(subset_elem(b)).items():
                    right = right + LinComb.single((a, b1, b2), co * ci)
            assert left == right


def test_dynkin_image_is_lie():
    for n in range(1, 5):
        assert lie_projection_check(dynkin(n)) is True
        assert lie_projection_check(solomon(n)) is True
    assert lie_projection_check(ga("1 2")) is False


def left_normed(w):
    """[..[w1, w2], .., wn] on the letters of w, expanded as [u, a] = ua - au."""
    elt = {w[:1]: 1}
    for a in w[1:]:
        new = {}
        for word, c in elt.items():
            new[word + (a,)] = new.get(word + (a,), 0) + c
            new[(a,) + word] = new.get((a,) + word, 0) - c
        elt = new
    return elt


def bracket_elem(w, c=1):
    return GroupAlgElem(len(w), {Permutation(u): c * s for u, s in left_normed(w).items()})


def test_every_left_normed_bracket_is_lie():
    # the Lie check reads only the words that start with x1; every other
    # left-normed bracket must pass as well
    for n in range(1, 6):
        for tau in itertools.permutations(range(1, n + 1)):
            assert lie_projection_check(bracket_elem(tau)) is True, tau


def dynkin_specht_wever(g):
    """Is g Lie, by theta(P) = nP, theta bracketing each word left-normed?"""
    theta = {}
    for p, c in g.terms.terms.items():
        for word, s in left_normed(p.images).items():
            theta[word] = theta.get(word, 0) + s * c
    return {w: v for w, v in theta.items() if v} == {
        p.images: g.n * c for p, c in g.terms.terms.items()
    }


def _random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))


def _random_lie(rng, n):
    """A random combination of left-normed brackets, on any first letter."""
    total = GroupAlgElem(n)
    for _ in range(rng.randint(1, 4)):
        total = total + bracket_elem(tuple(rng.sample(range(1, n + 1), n)), _random_coeff(rng))
    return total


def _random_elem(rng, n):
    perms = list(permutations_of(n))
    return GroupAlgElem(n, {p: _random_coeff(rng) for p in rng.sample(perms, min(len(perms), 5))})


def _lie_check_cases():
    yield from ((f"solomon({n})", solomon(n), True) for n in range(1, 8))
    yield from ((f"dynkin({n})", dynkin(n), True) for n in range(1, 8))
    for n in range(1, 6):
        for tau in itertools.permutations(range(1, n + 1)):
            yield f"bracket{tau}", bracket_elem(tau), True
    rng = random.Random(20240611)
    for n in range(1, 7):
        for i in range(15):
            yield f"random lie {n}.{i}", _random_lie(rng, n), True
            yield f"random {n}.{i}", _random_elem(rng, n), None
            if n > 1:
                lie = _random_lie(rng, n)
                p = rng.choice(sorted(lie.terms.terms))
                yield f"perturbed {n}.{i}", lie + GroupAlgElem.single(p, _random_coeff(rng)), False


def test_lie_check_agrees_with_dynkin_specht_wever():
    for name, g, expected in _lie_check_cases():
        got = lie_projection_check(g)
        assert got is dynkin_specht_wever(g), name
        if expected is not None:
            assert got is expected, name


def test_degree_bound():
    with pytest.raises(SizeBoundError, match="size bound"):
        de_equal(8, frozenset(range(1, 9)))
    with pytest.raises(SizeBoundError, match="size bound"):
        dynkin(8)


def test_parse_group_alg_roundtrip():
    g = ga("1/2*1 2 + -1/2*2 1")
    assert g == solomon(2)
    assert parse_group_alg(str(g)) == g
    with pytest.raises(InputError):
        parse_group_alg("1 2 + 1 2 3")


def test_parse_composition():
    assert parse_composition("(1,2)") == (1, 2)
    assert parse_composition("1, 2") == (1, 2)
    with pytest.raises(InputError):
        parse_composition("(1, 0)")


@given(st.integers(min_value=1, max_value=5), st.data())
def test_moebius_roundtrip_random(n, data):
    comps = list(compositions(n))
    coeffs = {
        c: Fraction(data.draw(st.integers(-3, 3), label=str(c)))
        for c in data.draw(st.sets(st.sampled_from(comps), max_size=3), label="support")
    }
    d = DescElem.from_subset(n, coeffs)
    assert DescElem.from_subset(n, d.to_subset()) == d
    assert d.to_subset() == LinComb(coeffs)
    want = GroupAlgElem(n)
    for c, x in coeffs.items():
        want = want + de_subset(n, subset_from_composition(c)).scale(x)
    assert d.expand() == want
