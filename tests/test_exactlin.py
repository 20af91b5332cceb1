"""Scalars, polynomials, and linear combinations."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from gebra.exactlin import (
    InputError,
    LinComb,
    Poly,
    format_terms,
    lin_sum,
    parse_scalar,
    reduced,
    scalar_div,
    tensor_pair,
    term_sum,
)
from gebra.words import Alphabet, parse_tensor

scalars = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)

polys = st.dictionaries(
    st.integers(min_value=0, max_value=6), scalars, max_size=5
).map(Poly)


def test_parse_scalar_forms():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar(" 4/6 ") == Fraction(2, 3)


def test_parse_scalar_rejects_decimals_and_zero_divisor():
    with pytest.raises(InputError, match="decimal"):
        parse_scalar("0.5")
    with pytest.raises(InputError, match="zero divisor"):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar("one")


@pytest.mark.parametrize("text", ["1e-3", "1E3", "2e0/3", "1/1e2", "1_000", "1/1_0", "\u0663", "1/\uff12"])
def test_parse_scalar_rejects_exponents_underscores_and_non_ascii_digits(text):
    with pytest.raises(InputError, match="bad scalar"):
        parse_scalar(text)


def test_scalar_div_zero_divisor():
    assert scalar_div(Fraction(1), Fraction(2)) == Fraction(1, 2)
    with pytest.raises(InputError, match="zero divisor"):
        scalar_div(Fraction(1), Fraction(0))


def _float_in_a_bracket_table():
    from gebra.binfty import BInftyStructure

    alphabet = Alphabet("a, b")
    a, b = alphabet.word("a"), alphabet.word("b")
    return BInftyStructure.explicit(alphabet, {(a, a): {b: 0.1}})


# 0.1 as a Fraction is 3602879701896397/36028797018963968, not 1/10
@pytest.mark.parametrize("build", [
    lambda: LinComb({"a": 0.1}),
    lambda: Poly({0: 0.1}),
    lambda: LinComb.single("a").scale(0.1),
    _float_in_a_bracket_table,
    lambda: Poly.x_power(1)(0.1),
    lambda: scalar_div(1, 0.1),
], ids=["LinComb", "Poly", "LinComb.scale", "bracket table value", "Poly value", "scalar_div"])
def test_a_float_coefficient_is_refused(build):
    with pytest.raises(InputError, match="float coefficient 0.1"):
        build()


def test_poly_str_is_descending():
    p = Poly({2: Fraction(6), 1: Fraction(6), 0: Fraction(1)})
    assert str(p) == "6X^2+6X+1"
    assert str(Poly()) == "0"
    assert str(Poly.x_power(1)) == "X"
    assert str(Poly.x_power(2, 2) - Poly.x_power(1)) == "2X^2-X"


def test_poly_arithmetic_keeps_its_type_and_adds_only_polys():
    p = Poly({2: 6, 0: 1})
    for x in (p + p, p - p, -p, 2 * p, p * 3, p.scale(Fraction(1, 2)), p * p):
        assert type(x) is Poly
    # a Poly is a LinComb keyed by exponents: equal to one with its terms
    assert p == LinComb({2: 6, 0: 1})
    with pytest.raises(TypeError):
        p + LinComb({"a": 1})
    with pytest.raises(TypeError):
        p - LinComb({"a": 1})


def test_poly_rejects_negative_exponent():
    with pytest.raises(InputError, match="negative exponent"):
        Poly({-1: Fraction(1)})


def test_poly_eval_and_integral():
    p = Poly({2: Fraction(6), 1: Fraction(6), 0: Fraction(1)})
    assert p(Fraction(1)) == 13
    # integral over [-1, 0]: sum of (-1)^k c_k / (k+1)
    assert p.integrate_unit_interval() == 0
    assert Poly.x_power(1).integrate_unit_interval() == Fraction(-1, 2)
    assert Poly.x_power(2).integrate_unit_interval() == Fraction(1, 3)


@given(polys, polys, polys)
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Poly()
    assert p * Poly.const(1) == p


@given(polys, polys, scalars)
def test_poly_evaluation_is_a_ring_map(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)


@given(polys)
def test_poly_integral_is_linear_in_examples(p):
    assert (p + p).integrate_unit_interval() == 2 * p.integrate_unit_interval()


def lincombs():
    return st.dictionaries(
        st.text("abc", min_size=1, max_size=2), scalars, max_size=4
    ).map(LinComb)


@given(lincombs(), lincombs(), scalars)
def test_lincomb_module_laws(x, y, c):
    assert x + y == y + x
    assert x - x == LinComb.zero()
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x.scale(0) == LinComb.zero()
    for k, v in (x + y).items():
        assert v == x.coeff(k) + y.coeff(k)


def test_lincomb_drops_zero_terms():
    x = LinComb({"a": Fraction(1)}) - LinComb({"a": Fraction(1)})
    assert not x
    assert len(x) == 0
    assert x == LinComb.zero()


def test_lincomb_map_keys_merges_collisions():
    x = LinComb({"ab": Fraction(1), "ba": Fraction(2)})
    assert x.map_keys(lambda k: "".join(sorted(k))) == LinComb({"ab": Fraction(3)})


def test_lincomb_apply_is_linear_extension():
    x = LinComb({"a": Fraction(2), "b": Fraction(-1)})
    image = {"a": LinComb({"u": Fraction(1)}), "b": LinComb({"u": Fraction(1), "v": Fraction(1)})}
    assert x.apply(lambda k: image[k]) == LinComb({"u": Fraction(1), "v": Fraction(-1)})


def test_format_terms_sorted_and_unit_coefficients():
    x = LinComb({"b": Fraction(1), "a": Fraction(-1, 2)})
    assert format_terms(x) == "-1/2*a + b"
    assert format_terms(LinComb.zero()) == "0"


def test_format_terms_renders_shared_and_distinct_coefficients_alike():
    half = Fraction(1, 2)
    shared = LinComb({"d": half, "a": half, "c": Fraction(1), "b": half, "e": Fraction(-1)})
    distinct = LinComb(
        {"d": Fraction(2, 4), "a": Fraction(1, 2), "c": Fraction(1), "b": Fraction(1, 2), "e": Fraction(-1)}
    )
    assert format_terms(shared) == format_terms(distinct) == "1/2*a + 1/2*b + c + 1/2*d + -1*e"


def test_tensor_pair_is_bilinear():
    x = LinComb({"a": Fraction(2)})
    y = LinComb({"u": Fraction(3), "v": Fraction(1)})
    assert tensor_pair(x, y) == LinComb({("a", "u"): Fraction(6), ("a", "v"): Fraction(2)})


def test_scalar_arithmetic_agrees_with_integers():
    import random

    rng = random.Random(20260819)
    for _ in range(1000):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert Fraction(a) + Fraction(b) == a + b
        assert Fraction(a) * Fraction(b) == a * b
        assert Fraction(a) - Fraction(b) == a - b
        if b:
            assert scalar_div(Fraction(a), Fraction(b)) == Fraction(a, b)


def naive_assoc_list(pairs):
    """Association-list oracle: accumulate, then drop zeros."""
    acc = []
    for key, coeff in pairs:
        for i, (k, c) in enumerate(acc):
            if k == key:
                acc[i] = (k, c + coeff)
                break
        else:
            acc.append((key, coeff))
    return sorted((k, c) for k, c in acc if c)


@given(st.lists(st.tuples(st.sampled_from("abcd"), scalars), max_size=8), scalars)
def test_lincomb_matches_assoc_list_oracle(pairs, c):
    x = LinComb.zero()
    for key, coeff in pairs:
        x = x + LinComb.single(key, coeff)
    assert sorted(x.items()) == naive_assoc_list(pairs)
    scaled = [(k, c * v) for k, v in pairs]
    assert sorted(x.scale(c).items()) == naive_assoc_list(scaled)


def test_term_sum_adds_raw_coefficients_and_drops_zeros():
    pairs = [
        (1, {"a": 2, "b": 3}.items()),
        (-1, [("a", 2), ("c", Fraction(-1, 2))]),
        (2, {"b": Fraction(-3, 2), "c": Fraction(1, 4), "d": 5}.items()),
    ]
    out = term_sum(pairs)
    assert out == {"c": 1, "d": 10}
    assert type(out["d"]) is int
    assert list(out) == ["c", "d"]
    assert term_sum([]) == {}


def test_lin_sum_wraps_term_sum():
    x = LinComb({"a": Fraction(1, 3), "b": 1})
    got = lin_sum([(3, x), (-1, {"a": 1, "c": Fraction(1, 2)})])
    assert got == LinComb({"b": 3, "c": Fraction(-1, 2)})
    assert all(type(c) is Fraction for c in got.terms.values())


# Each case gives the coefficients of a result built from int-valued input.
FRACTION_CASES = {
    "LinComb+": lambda: (LinComb({"a": 1, "b": 2}) + LinComb({"a": 1})).terms.values(),
    "LinComb-": lambda: (LinComb({"a": 1}) - LinComb({"b": 3})).terms.values(),
    "map_keys": lambda: LinComb({"a": 1, "b": 3, "cd": 2}).map_keys(len).terms.values(),
    "tensor_pair": lambda: tensor_pair(LinComb({"a": 1}), LinComb({"b": 2, "c": 1})).terms.values(),
    "Poly+": lambda: (Poly({0: 1, 1: 2}) + Poly({1: 1})).terms.values(),
    "Poly-": lambda: (Poly({0: 1}) - Poly({2: 1})).terms.values(),
    "Poly*": lambda: (Poly({0: 1, 1: 1}) * Poly({0: 1, 1: -1})).terms.values(),
    "parse_tensor": lambda: parse_tensor("a + 2*b + a + 1", Alphabet("a,b")).terms.values(),
}


@pytest.mark.parametrize("case", list(FRACTION_CASES))
def test_coefficients_stay_fractions(case):
    values = list(FRACTION_CASES[case]())
    assert values
    assert all(type(c) is Fraction for c in values)


def test_reduced_keeps_the_value():
    assert reduced(Fraction(6, 3)) == 2 and type(reduced(Fraction(6, 3))) is int
    assert reduced(Fraction(1, 3)) == Fraction(1, 3)
    assert reduced(-4) == -4
