"""Finite topologies: coproducts, projector, bracket, Upsilon, lambda, e."""

import functools
import itertools
import random
import time

import pytest
from fractions import Fraction

import gebra.topo as topo
from gebra.exactlin import InputError, LinComb, Poly, SizeBoundError, format_terms, lin_sum
from gebra.topo import (
    Partition,
    QuasiOrder,
    QuasiOrderClass,
    _lex_min_rows,
    all_isoclasses,
    antipode,
    as_class,
    binf_bracket,
    canonical_pi_idem,
    canonicalize,
    closed_form_e,
    coproduct_Delta,
    coproduct_delta,
    corolla,
    delta_bar_tuples,
    discrete,
    down_product,
    ec_partitions,
    eps_delta,
    eulerian_e,
    inf_pi,
    lambda_char,
    ladder,
    open_sets,
    parse_topology,
    product_m,
    render_basis,
    render_topo,
    set_partitions,
    surjection_count,
    topo_name,
    unit_class,
    upsilon,
)

U = unit_class()
D1 = discrete(1)
D2 = discrete(2)
D3 = discrete(3)
L2 = ladder(2)
L3 = ladder(3)
C3 = corolla(3)
C3H = as_class("3; 1<3, 2<3")  # two minima below one maximum
B2 = as_class("2; 1~2")  # one class of size two
B3 = as_class("3; 1~2, 1~3, 2~3")
CHB2 = as_class("3; 1~2, 1<3")  # ladder with bottom class of size two
D1L2 = as_class("3; 2<3")  # point next to a 2-chain


def E(*pairs):
    out = LinComb.zero()
    for coeff, cls in pairs:
        out = out + LinComb.single(as_class(cls), Fraction(coeff))
    return out


def pair_comb(*triples):
    out = LinComb.zero()
    for coeff, a, b in triples:
        out = out + LinComb.single((as_class(a), as_class(b)), Fraction(coeff))
    return out


def iso_upto(n):
    out = []
    for k in range(1, n + 1):
        out.extend(all_isoclasses(k))
    return out


# -- construction, parsing, canonical forms ----------------------------------


def test_parse_topology_grammar():
    q = parse_topology("3; 1<2, 2~3")
    assert q.n == 3
    assert q.leq(0, 1) and q.leq(1, 2) and q.leq(2, 1)
    assert q.leq(0, 2)  # transitive closure through the equivalence
    assert not q.leq(1, 0)
    assert parse_topology("2").n == 2  # bare count: discrete
    assert parse_topology("0").n == 0


def test_parse_topology_errors():
    for bad in ("", "x", "-1", "3; 1<5", "3; 1<1", "3; 1~1", "2; 1*2", "2; 1<"):
        with pytest.raises(InputError):
            parse_topology(bad)


def test_closure_is_reflexive_and_transitive():
    q = parse_topology("4; 1<2, 2<3, 3<4")
    for i in range(4):
        assert q.leq(i, i)
    assert q.leq(0, 3)


def test_canonical_form_is_relabeling_invariant():
    a = as_class("3; 1<2, 1<3")
    b = as_class("3; 2<1, 2<3")
    c = as_class("3; 3<1, 3<2")
    assert a == b == c == C3
    assert hash(a) == hash(c)
    assert as_class("3; 1<3, 3~2") == as_class("3; 2<3, 3~1")


def test_canonical_texts_are_pinned():
    assert str(L2) == "2; 2<1"
    assert str(C3) == "3; 3<1, 3<2"
    assert str(C3H) == "3; 2<1, 3<1"
    assert str(L3) == "3; 2<1, 3<1, 3<2"
    assert str(CHB2) == "3; 2<1, 3<1, 2~3"
    assert str(D1L2) == "3; 3<2"
    assert str(B3) == "3; 1~2, 1~3, 2~3"


def test_text_roundtrip_on_isoclasses():
    for tc in iso_upto(4):
        assert canonicalize(parse_topology(tc.q.to_text())) == tc


def test_canonical_bound():
    with pytest.raises(SizeBoundError, match="size bound"):
        as_class("9; 1<2")
    # every constructor refuses past the bound before it allocates
    past = topo.CANON_BOUND + 1
    for make, arg in ((parse_topology, f"{past}; 1<2"), (parse_topology, "16"),
                      (discrete, past), (ladder, past), (corolla, past),
                      (parse_topology, "1000000"), (discrete, 10**6), (ladder, 10**6),
                      (open_sets, QuasiOrder(past))):
        t0 = time.monotonic()
        with pytest.raises(SizeBoundError, match=f"canonical forms stop at n = {topo.CANON_BOUND}$"):
            make(arg)
        assert time.monotonic() - t0 < 1.0


def test_names_and_rendering():
    assert topo_name(U) == "1"
    assert topo_name(D1) == "disc1"
    assert topo_name(D3) == "disc3"
    assert topo_name(L3) == "l3"
    assert topo_name(corolla(4)) == "c4"
    assert topo_name(L2) == "l2"
    assert topo_name(C3H) is None
    assert render_topo(C3H) == "[3; 2<1, 3<1]"
    assert render_topo(L3) == "l3"


def test_names_match_the_class_based_definition():
    # the named shapes, read off the equivalence classes and up-set sizes
    def name_oracle(tc):
        q, n = tc.q, tc.n
        singletons = all(len(c) == 1 for c in q.classes())
        if q.is_equivalence():
            return f"disc{n}" if singletons else None
        if not singletons:
            return None
        pops = sorted(r.bit_count() for r in q.rows)
        if pops == list(range(1, n + 1)):
            return f"l{n}"
        if n >= 3 and pops == [1] * (n - 1) + [n]:
            return f"c{n}"
        return None

    for tc in iso_upto(5):
        assert topo_name(tc) == name_oracle(tc), tc


def test_constructors_validate():
    with pytest.raises(InputError):
        ladder(0)
    with pytest.raises(InputError):
        corolla(1)


@pytest.mark.parametrize(
    "make",
    [
        QuasiOrder,
        discrete,
        lambda n: Partition(n, [[0], [1]]),
        ladder,
        corolla,
        lambda v: Partition(2, [[0], [v]]),
        lambda r: QuasiOrder(2, [r, 0]),
    ],
    ids=["QuasiOrder", "discrete", "Partition", "ladder", "corolla", "Partition-vertex",
         "QuasiOrder-row"],
)
@pytest.mark.parametrize("n", [2.5, "3", 1.5])
def test_constructors_refuse_non_integer_vertex_counts(make, n):
    with pytest.raises(InputError, match="is not an integer"):
        make(n)


@pytest.mark.parametrize(
    "make",
    [QuasiOrder, discrete, lambda n: Partition(n, []), all_isoclasses],
    ids=["QuasiOrder", "discrete", "Partition", "all_isoclasses"],
)
def test_constructors_refuse_negative_vertex_counts(make):
    with pytest.raises(InputError, match="negative vertex count"):
        make(-1)


def test_open_sets():
    assert len(open_sets(L3.q)) == 4  # chains have n+1 opens
    assert len(open_sets(D3.q)) == 8
    assert len(open_sets(C3.q)) == 5
    assert len(open_sets(B2.q)) == 2  # a class is all-or-nothing
    big = QuasiOrder(16, [0] * 16)
    with pytest.raises(SizeBoundError, match="size bound"):
        open_sets(big)


def test_set_partitions_are_bell_numbers():
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        assert len(list(set_partitions(n))) == bell


def test_partition_validation():
    Partition(3, ((0, 1), (2,)))
    with pytest.raises(InputError):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(InputError):
        Partition(3, ((0, 1),))
    with pytest.raises(InputError):
        Partition(3, ((0, 1), ()))


# Topologies on n points up to homeomorphism, n = 0..7 (OEIS A001930).
A001930 = (1, 1, 3, 9, 33, 139, 718, 4535)


def test_isoclass_counts():
    upto = topo.ISO_BOUND + 1
    assert [len(all_isoclasses(n)) for n in range(upto)] == list(A001930[:upto])
    with pytest.raises(SizeBoundError, match="size bound"):
        all_isoclasses(upto)


@functools.cache
def labeled_partial_orders(k):
    """All partial orders on {0..k-1}: orientation choices filtered by transitivity."""
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(k)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        q = QuasiOrder(k, rows)
        if q.rows == rows:
            out.append(q)
    return out


def isoclass_keys_oracle(n):
    """Sorted class keys on n points: every set partition into equivalence
    classes times every partial order on the classes."""
    seen = set()
    for p in set_partitions(n):
        masks = p.masks()
        k = len(masks)
        for P in labeled_partial_orders(k):
            rows = [0] * n
            for b in range(k):
                below = 0
                for b2 in range(k):
                    if (P.rows[b] >> b2) & 1:
                        below |= masks[b2]
                for v in p.blocks[b]:
                    rows[v] = below
            seen.add(canonicalize(QuasiOrder(n, rows)).key)
    return tuple(sorted(seen))


def test_isoclasses_match_the_partition_orientation_oracle():
    for n in range(6):
        assert tuple(tc.key for tc in all_isoclasses(n)) == isoclass_keys_oracle(n)


def test_one_point_extensions_are_already_closed():
    for n in range(5):
        for tc in all_isoclasses(n):
            for rows in topo._one_point_extensions(tc.q):
                assert len(rows) == n + 1
                assert QuasiOrder(n + 1, rows).rows == rows


def test_all_isoclasses_checks_its_argument_and_shares_a_tuple():
    before = topo._isoclasses.cache_info()
    for bad in (2.5, -1, "3", None):
        with pytest.raises(InputError):
            all_isoclasses(bad)
    with pytest.raises(SizeBoundError):
        all_isoclasses(10**9)
    assert topo._isoclasses.cache_info() == before
    classes = all_isoclasses(3)
    assert isinstance(classes, tuple)
    assert all_isoclasses(3) is classes


def test_restrict_blocks_and_quotient():
    # corolla c3: root 3 below tops 1 and 2; cut along blocks {1} | {2, 3}
    p = Partition(3, ((0,), (1, 2)))
    assert canonicalize(C3.q.restrict_blocks(p)) == D1L2  # point next to a 2-chain
    assert canonicalize(C3.q.quotient(p)) == CHB2  # block {2, 3} becomes a class


# -- the two coproducts -------------------------------------------------------


def test_delta_golden_values():
    assert coproduct_Delta(L2) == pair_comb(
        (1, L2, U), (1, U, L2), (1, D1, D1)
    )
    assert coproduct_Delta(C3) == pair_comb(
        (1, C3, U), (1, U, C3), (2, L2, D1), (1, D1, D2)
    )


def test_delta_counit():
    for tc in iso_upto(4):
        left = LinComb.zero()
        right = LinComb.zero()
        for (a, b), c in coproduct_Delta(tc).items():
            if a == U:
                left = left + LinComb.single(b, c)
            if b == U:
                right = right + LinComb.single(a, c)
        assert left == LinComb.single(tc)
        assert right == LinComb.single(tc)


def test_delta_coassociativity():
    for tc in iso_upto(4):
        left = LinComb.zero()
        right = LinComb.zero()
        for (a, b), c in coproduct_Delta(tc).items():
            for (p, q), d in coproduct_Delta(a).items():
                left = left + LinComb.single((p, q, b), c * d)
            for (p, q), d in coproduct_Delta(b).items():
                right = right + LinComb.single((a, p, q), c * d)
        assert left == right


def test_delta_is_multiplicative():
    """Bialgebra law for the disjoint-union product, total size <= 5."""
    classes = iso_upto(4)
    for s, t in itertools.product(classes, classes):
        if s.n + t.n > 5:
            continue
        lhs = coproduct_Delta(product_m(s, t).support()[0])
        rhs = LinComb.zero()
        for (a, b), c in coproduct_Delta(s).items():
            for (p, q), d in coproduct_Delta(t).items():
                key = (
                    product_m(a, p).support()[0],
                    product_m(b, q).support()[0],
                )
                rhs = rhs + LinComb.single(key, c * d)
        assert lhs == rhs


def test_small_delta_golden_values():
    assert coproduct_delta(D1) == pair_comb((1, D1, D1))
    assert coproduct_delta(L2) == pair_comb((1, L2, D2), (1, B2, L2))
    assert coproduct_delta(C3) == pair_comb(
        (1, C3, D3), (2, CHB2, D1L2), (1, B3, C3)
    )


def test_ec_partition_counts():
    assert len(ec_partitions(D1.q)) == 1
    assert len(ec_partitions(L2.q)) == 2
    assert len(ec_partitions(C3.q)) == 4
    with pytest.raises(SizeBoundError, match="size bound"):
        ec_partitions(QuasiOrder(8, [0] * 8))


def test_small_delta_counit():
    # (eps_delta x id) after delta is the identity
    for tc in iso_upto(4):
        left = LinComb.zero()
        right = LinComb.zero()
        for (a, b), c in coproduct_delta(tc).items():
            left = left + LinComb.single(b, c * eps_delta(a))
            right = right + LinComb.single(a, c * eps_delta(b))
        assert left == LinComb.single(tc)
        assert right == LinComb.single(tc)


def test_small_delta_coassociativity():
    for tc in iso_upto(4):
        left = LinComb.zero()
        right = LinComb.zero()
        for (a, b), c in coproduct_delta(tc).items():
            for (p, q), d in coproduct_delta(a).items():
                left = left + LinComb.single((p, q, b), c * d)
            for (p, q), d in coproduct_delta(b).items():
                right = right + LinComb.single((a, p, q), c * d)
        assert left == right


def test_small_delta_is_multiplicative():
    classes = iso_upto(3)
    for s, t in itertools.product(classes, classes):
        if s.n + t.n > 4:
            continue
        lhs = coproduct_delta(product_m(s, t).support()[0])
        rhs = LinComb.zero()
        for (a, b), c in coproduct_delta(s).items():
            for (p, q), d in coproduct_delta(t).items():
                key = (
                    product_m(a, p).support()[0],
                    product_m(b, q).support()[0],
                )
                rhs = rhs + LinComb.single(key, c * d)
        assert lhs == rhs


def test_eps_delta_values():
    assert eps_delta(D1) == 1
    assert eps_delta(B2) == 1
    assert eps_delta(D2) == 1
    assert eps_delta(U) == 1
    assert eps_delta(L2) == 0
    assert eps_delta(C3) == 0


def test_double_bialgebra_compatibility():
    """(Delta x Id) after delta = m_{1,3,24} after (delta x delta) after Delta,
    on all isoclasses of size <= 4."""
    for tc in iso_upto(4):
        lhs = LinComb.zero()
        for (q, r), c in coproduct_delta(tc).items():
            for (q1, q2), d in coproduct_Delta(q).items():
                lhs = lhs + LinComb.single((q1, q2, r), c * d)
        rhs = LinComb.zero()
        for (a, b), c in coproduct_Delta(tc).items():
            for (a1, a2), d in coproduct_delta(a).items():
                for (b1, b2), f in coproduct_delta(b).items():
                    for m, cm in product_m(a2, b2).items():
                        rhs = rhs + LinComb.single((a1, b1, m), c * d * f * cm)
        assert lhs == rhs


# -- products and the infinitesimal structure ---------------------------------


def test_products_are_canonical_and_match():
    assert product_m(D1, D1) == E((1, D2))
    assert product_m(L2, D1) == E((1, D1L2))
    assert down_product(D1, D1) == E((1, L2))
    assert down_product(D1, L2) == E((1, L3))
    assert down_product(L2, D1) == E((1, L3))
    assert down_product(D1, D2) == E((1, C3))
    assert down_product(D2, D1) == E((1, C3H))


def test_product_m_is_commutative_and_associative():
    classes = iso_upto(2)
    for a, b in itertools.product(classes, classes):
        assert product_m(a, b) == product_m(b, a)
    for a, b, c in itertools.product(classes, classes, classes):
        if a.n + b.n + c.n > 5:
            continue
        assert product_m(product_m(a, b), c) == product_m(a, product_m(b, c))


def test_down_product_is_associative_not_commutative():
    classes = iso_upto(2)
    for a, b, c in itertools.product(classes, classes, classes):
        if a.n + b.n + c.n > 5:
            continue
        assert down_product(down_product(a, b), c) == down_product(a, down_product(b, c))
    assert down_product(D1, D2) != down_product(D2, D1)


def test_infinitesimal_compatibility():
    """Delta(x down y) = (x x 1) down Delta(y) + Delta(x) down (1 x y) - x x y
    for all pairs with total size <= 5."""

    def down_pairs(p1, p2):
        out = LinComb.zero()
        for (a, b), c in p1.items():
            for (u, v), d in p2.items():
                for da, ca in down_product(a, u).items():
                    for db, cb in down_product(b, v).items():
                        out = out + LinComb.single((da, db), c * d * ca * cb)
        return out

    classes = iso_upto(4)
    for x, y in itertools.product(classes, classes):
        if x.n + y.n > 5:
            continue
        lhs = coproduct_Delta(down_product(x, y).support()[0])
        x_unit = pair_comb((1, x, U))
        unit_y = pair_comb((1, U, y))
        rhs = (
            down_pairs(x_unit, coproduct_Delta(y))
            + down_pairs(coproduct_Delta(x), unit_y)
            - pair_comb((1, x, y))
        )
        assert lhs == rhs


def test_pi_golden_values():
    assert inf_pi(D1) == E((1, D1))
    assert inf_pi(L2) == LinComb.zero()
    assert inf_pi(D2) == E((1, D2), (-2, L2))
    assert inf_pi(C3) == LinComb.zero()
    assert inf_pi(C3H) == LinComb.zero()
    assert inf_pi(L3) == LinComb.zero()
    assert inf_pi(D1L2) == E((1, D1L2), (-1, C3), (-1, C3H), (1, L3))
    assert inf_pi(D3) == E((1, D3), (-3, C3), (-3, C3H), (6, L3))


def test_pi_rejects_the_unit():
    with pytest.raises(InputError, match="not augmentation-reduced"):
        inf_pi(E((1, U)))


def test_pi_is_a_projector():
    for tc in iso_upto(4):
        p = inf_pi(tc)
        assert inf_pi(p) == p


def test_pi_kills_stacked_products():
    classes = iso_upto(3)
    for a, b in itertools.product(classes, classes):
        if a.n + b.n > 4:
            continue
        assert inf_pi(down_product(a, b)) == LinComb.zero()


def test_pi_image_is_primitive():
    for tc in iso_upto(4):
        x = inf_pi(tc)
        # reduced Delta of the image vanishes
        red = LinComb.zero()
        for cls, coeff in x.items():
            for (a, b), c in coproduct_Delta(cls).items():
                if a != U and b != U:
                    red = red + LinComb.single((a, b), coeff * c)
        assert red == LinComb.zero()


def theta_rank(rows, index):
    """Rank of a list of LinComb rows over the given basis indexing."""
    pivots = {}
    rank = 0
    for row in rows:
        vec = {index[k]: c for k, c in row.items() if c}
        while vec:
            lead = min(vec)
            if lead in pivots:
                piv = pivots[lead]
                factor = vec[lead] / piv[lead]
                vec = {j: vec.get(j, Fraction(0)) - factor * piv.get(j, Fraction(0))
                       for j in set(vec) | set(piv)}
                vec = {j: c for j, c in vec.items() if c}
            else:
                pivots[lead] = vec
                rank += 1
                break
    return rank


def test_theta_freeness_rank_decomposition():
    """H-bar splits as primitives plus stacked products in each size <= 4."""
    for n in range(1, 5):
        classes = all_isoclasses(n)
        index = {tc: i for i, tc in enumerate(classes)}
        pi_rows = [inf_pi(tc) for tc in classes]
        down_rows = []
        for p in range(1, n):
            for a in all_isoclasses(p):
                for b in all_isoclasses(n - p):
                    down_rows.append(down_product(a, b))
        assert theta_rank(pi_rows, index) + theta_rank(down_rows, index) == len(classes)


def test_bracket_golden_values():
    assert binf_bracket([E((1, D1))], [E((1, D1))]) == E((1, D2), (-2, L2))
    two_args = binf_bracket([E((1, D1)), E((1, D1))], [E((1, D1))])
    assert two_args == E((1, D1L2), (-1, C3), (-1, C3H), (1, L3))
    assert two_args == binf_bracket([E((1, D1))], [E((1, D1)), E((1, D1))])
    pi2 = inf_pi(D2)
    assert binf_bracket([pi2], [E((1, D1))]) == E(
        (1, D3), (-2, D1L2), (-1, C3), (-1, C3H), (4, L3)
    )


def pi_chain_oracle(tc):
    """pi as the alternating sum over k of the (k-1)-fold stacking of the
    (k-1)-fold reduced open-set coproduct: one term per chain of open sets."""
    q = tc.q
    return lin_sum(
        (1 if k % 2 else -1, {canonicalize(functools.reduce(QuasiOrder.down, tup)): 1})
        for k in range(1, q.n + 1)
        for tup in delta_bar_tuples(q, k)
    )


def test_pi_matches_the_chain_sum_oracle_up_to_5_points():
    for tc in iso_upto(5):
        assert inf_pi(tc) == pi_chain_oracle(tc), tc


@pytest.mark.parametrize("n,count", [(6, 24), (7, 10)])
def test_pi_matches_the_chain_sum_oracle_on_random_classes(n, count):
    for q in random_quasi_orders(n, count, seed=600 + n):
        tc = canonicalize(q)
        assert inf_pi(tc) == pi_chain_oracle(tc), q


def test_antipode_values_and_takeuchi():
    assert antipode(U) == LinComb.single(U)
    assert antipode(D1) == E((-1, D1))
    for tc in iso_upto(4):
        assert -antipode(tc) == inf_pi(tc)


# -- Upsilon ------------------------------------------------------------------


UPSILON_GOLDEN = [
    (D1, Poly.const(1)),
    (D2, Poly({1: Fraction(2), 0: Fraction(1)})),
    (D3, Poly({2: Fraction(6), 1: Fraction(6), 0: Fraction(1)})),
    (L2, Poly.x_power(1)),
    (C3, Poly({2: Fraction(2), 1: Fraction(1)})),
    (C3H, Poly({2: Fraction(2), 1: Fraction(1)})),
    (L3, Poly.x_power(2)),
    (D1L2, Poly({2: Fraction(3), 1: Fraction(2)})),
]


def test_upsilon_golden_table():
    for tc, want in UPSILON_GOLDEN:
        assert upsilon(tc, method="recursive") == want
        assert upsilon(tc, method="surjection_oracle") == want


def test_upsilon_more_values():
    assert upsilon(discrete(4)) == Poly(
        {3: Fraction(24), 2: Fraction(36), 1: Fraction(14), 0: Fraction(1)}
    )
    assert upsilon(B2) == Poly.const(1)
    assert upsilon(CHB2) == Poly.x_power(1)
    for n in range(1, 7):
        assert upsilon(ladder(n)) == Poly.x_power(n - 1)


def test_upsilon_depends_only_on_the_class_quotient():
    assert upsilon(CHB2) == upsilon(L2)
    assert upsilon(B3) == upsilon(D1)


def test_upsilon_of_discretes_counts_surjections():
    for n in range(1, 6):
        got = upsilon(discrete(n))
        for k in range(n):
            assert got.coeffs.get(k, 0) == surjection_count(n, k)


def test_surjection_counts():
    assert surjection_count(3, 1) == 6
    for n in range(1, 7):
        import math

        assert surjection_count(n, n - 1) == math.factorial(n)
        assert surjection_count(n, 0) == 1


def test_upsilon_methods_agree_on_all_isoclasses():
    for n in range(1, 6):
        for tc in all_isoclasses(n):
            assert upsilon(tc, "recursive") == upsilon(tc, "surjection_oracle")


@pytest.mark.parametrize("n,count", [(6, 24), (7, 10)])
def test_upsilon_methods_agree_on_random_classes(n, count):
    for q in random_quasi_orders(n, count, seed=700 + n):
        tc = canonicalize(q)
        assert upsilon(tc, "recursive") == upsilon(tc, "surjection_oracle"), q


def test_upsilon_errors():
    with pytest.raises(InputError, match="unit topology"):
        upsilon(U)
    with pytest.raises(InputError):
        upsilon(D1, method="guesswork")


# -- lambda -------------------------------------------------------------------


LAMBDA_GOLDEN = [
    (D1, Fraction(1)),
    (L2, Fraction(-1, 2)),
    (C3, Fraction(1, 6)),
    (C3H, Fraction(1, 6)),
    (D2, Fraction(0)),
    (D3, Fraction(0)),
    (D1L2, Fraction(0)),
    (L3, Fraction(1, 3)),
    (corolla(4), Fraction(0)),
    (ladder(4), Fraction(-1, 4)),
    (corolla(5), Fraction(-1, 30)),
]


def test_lambda_golden_table():
    for tc, want in LAMBDA_GOLDEN:
        assert lambda_char(tc, method="upsilon_integral") == want
        assert lambda_char(tc, method="delta_series") == want


def test_lambda_on_ladders():
    for n in range(1, 7):
        assert lambda_char(ladder(n)) == Fraction((-1) ** (n + 1), n)


def test_lambda_conventions_and_linearity():
    assert lambda_char(E((1, U))) == 0
    x = E((2, L2), (1, D1))
    assert lambda_char(x) == 2 * Fraction(-1, 2) + 1


def test_lambda_methods_agree_on_all_isoclasses():
    for n in range(1, 6):
        for tc in all_isoclasses(n):
            assert lambda_char(tc, "upsilon_integral") == lambda_char(tc, "delta_series")


def test_lambda_vanishes_on_products():
    classes = iso_upto(4)
    for a, b in itertools.product(classes, classes):
        if a.n + b.n > 5:
            continue
        assert lambda_char(product_m(a, b)) == 0


# -- the Eulerian idempotent ---------------------------------------------------


def test_eulerian_golden_values():
    assert eulerian_e(D1) == E((1, D1))
    assert eulerian_e(L2) == E((1, L2), (Fraction(-1, 2), D2))
    assert eulerian_e(C3) == E((1, C3), (-1, D1L2), (Fraction(1, 6), D3))
    assert eulerian_e(C3H) == E((1, C3H), (-1, D1L2), (Fraction(1, 6), D3))
    assert eulerian_e(L3) == E((1, L3), (-1, D1L2), (Fraction(1, 3), D3))
    assert eulerian_e(D2) == LinComb.zero()


def test_canonical_pi_idem_golden_values():
    assert canonical_pi_idem(D1) == E((1, D1))
    assert canonical_pi_idem(L2) == E((1, L2), (Fraction(-1, 2), D2))
    want3 = E(
        (Fraction(1, 6), D3), (-1, D1L2),
        (Fraction(1, 2), C3), (Fraction(1, 2), C3H),
    )
    assert canonical_pi_idem(C3) == want3
    assert canonical_pi_idem(C3H) == want3
    assert canonical_pi_idem(L3) == E((Fraction(1, 3), D3), (-1, D1L2), (1, L3))
    assert canonical_pi_idem(D2) == LinComb.zero()


def test_eulerian_methods_agree():
    for tc in iso_upto(4):
        assert eulerian_e(tc, "via_delta") == eulerian_e(tc, "direct")


def test_eulerian_is_idempotent():
    for tc in iso_upto(4):
        e = eulerian_e(tc)
        assert eulerian_e(e) == e


def test_eulerian_kills_products():
    classes = iso_upto(3)
    for a, b in itertools.product(classes, classes):
        if a.n + b.n > 4:
            continue
        assert eulerian_e(product_m(a, b)) == LinComb.zero()


def test_eulerian_size_bound():
    with pytest.raises(SizeBoundError, match="size bound"):
        eulerian_e(as_class("7; 1<2"))


def test_closed_forms_match_eulerian():
    for n in range(2, 6):
        assert closed_form_e("ladder", n) == eulerian_e(ladder(n))
        assert closed_form_e("corolla", n) == eulerian_e(corolla(n))
    assert closed_form_e("ladder", 2) == E((1, L2), (Fraction(-1, 2), D2))
    assert closed_form_e("corolla", 3) == E(
        (1, C3), (-1, D1L2), (Fraction(1, 6), D3)
    )
    with pytest.raises(InputError, match="closed forms start at n = 2"):
        closed_form_e("ladder", 1)
    with pytest.raises(InputError):
        closed_form_e("wheel", 3)


# -- the canonical search and the E_c enumeration against exhaustive oracles --
#
# The oracles are the routes the library used before: every one of the n!
# relabelings, and every one of the Bell(n) set partitions filtered by the
# two admissibility conditions on closed quasi-orders.


def exhaustive_lex_min(q):
    """The lex-least tuple of row integers (bits read left to right) over all
    relabelings; a candidate is dropped at its first row above the best."""
    n = q.n
    succ = [[j for j in range(n) if (q.rows[i] >> j) & 1] for i in range(n)]
    weight = [1 << (n - 1 - i) for i in range(n)]
    best = [1 << n] * n
    for perm in itertools.permutations(range(n)):
        w = [0] * n
        for i, v in enumerate(perm):
            w[v] = weight[i]
        for i, v in enumerate(perm):
            val = sum(w[j] for j in succ[v])
            if val != best[i]:
                if val < best[i]:
                    best = [sum(w[j] for j in succ[u]) for u in perm]
                break
    return tuple(best)


def is_connected(q):
    """The comparability graph of q is connected (q nonempty)."""
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(q.n):
            if j not in seen and (q.leq(i, j) or q.leq(j, i)):
                seen.add(j)
                stack.append(j)
    return len(seen) == q.n


def in_ec_oracle(q, p):
    """Each block connected in the restriction, and contracting the blocks
    identifies nothing further."""
    r = q.restrict_blocks(p)
    for m in p.masks():
        if not is_connected(r.restrict_mask(m)):
            return False
    return tuple(q.quotient(p).classes()) == p.blocks


@functools.cache
def all_set_partitions(n):
    return tuple(set_partitions(n))


def ec_oracle(q):
    return {p for p in all_set_partitions(q.n) if in_ec_oracle(q, p)}


def relabel(q, perm):
    """Vertex i becomes perm[i]."""
    rows = [0] * q.n
    for i in range(q.n):
        for j in range(q.n):
            if (q.rows[i] >> j) & 1:
                rows[perm[i]] |= 1 << perm[j]
    return QuasiOrder(q.n, rows)


def random_quasi_orders(n, count, seed):
    """count random quasi-orders on n points, densities spread over 0..0.8;
    a dense draw is usually not T0."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        density = 0.8 * t / (count - 1)
        rows = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density / 2:
                    rows[i] |= 1 << j
        out.append(QuasiOrder(n, rows))
    return out


def relabeled_isoclasses():
    rng = random.Random(44)
    out = []
    for tc in iso_upto(5):
        for _ in range(3):
            perm = list(range(tc.n))
            rng.shuffle(perm)
            out.append(relabel(tc.q, perm))
    return out


def test_canonical_key_matches_exhaustive_on_relabeled_isoclasses():
    for q in relabeled_isoclasses():
        assert QuasiOrderClass(q).key == (q.n, exhaustive_lex_min(q)), q


@pytest.mark.parametrize("n", range(8))
def test_canonical_key_matches_exhaustive_on_random_quasi_orders(n):
    qs = random_quasi_orders(n, 300, seed=700 + n)
    if n >= 2:  # the draws include topologies that are not T0
        assert any(len(q.classes()) < n for q in qs)
    for q in qs:
        assert QuasiOrderClass(q).key == (n, exhaustive_lex_min(q)), q


def test_ec_enumeration_matches_filter_on_relabeled_isoclasses():
    for q in relabeled_isoclasses():
        assert set(ec_partitions(q)) == ec_oracle(q), q


@pytest.mark.parametrize("n", range(8))
def test_ec_enumeration_matches_filter_on_random_quasi_orders(n):
    for q in random_quasi_orders(n, 300, seed=700 + n):
        found = ec_partitions(q)
        assert len(found) == len(set(found))
        assert set(found) == ec_oracle(q), q


SYMMETRIC_8 = {
    "4 x l2": "8; 1<2, 3<4, 5<6, 7<8",
    "2 x c4": "8; 1<2, 1<3, 1<4, 5<6, 5<7, 5<8",
    "K_4,4": "8; " + ", ".join(f"{i}<{j}" for i in range(1, 5) for j in range(5, 9)),
    "disc8": "8",
    "4 x B2": "8; 1~2, 3~4, 5~6, 7~8",
    "crown": "8; 1<5, 1<6, 2<6, 2<7, 3<7, 3<8, 4<8, 4<5",
}


@pytest.mark.parametrize("text", SYMMETRIC_8.values(), ids=SYMMETRIC_8.keys())
def test_symmetric_8_point_topologies_canonicalize_within_100ms(text):
    q = parse_topology(text)
    t0 = time.perf_counter()
    key = _lex_min_rows(q.rows, q.n)
    assert time.perf_counter() - t0 < 0.1
    perm = [3, 6, 0, 7, 2, 5, 1, 4]
    assert _lex_min_rows(relabel(q, perm).rows, 8) == key


# -- the per-class memos -------------------------------------------------------


def clear_topo_memos():
    """Empty the labeled canonical memo and every functools.cache in topo."""
    topo._CANON_MEMO.clear()
    cached = [fn for fn in vars(topo).values() if hasattr(fn, "cache_clear")]
    for fn in cached:
        fn.cache_clear()
    assert all(fn.cache_info().currsize == 0 for fn in cached)


def memoized_results(q):
    """coproduct_Delta, coproduct_delta, canonical_pi_idem, inf_pi and
    eulerian_e of q, and every text render_basis gives for q and for those
    results, with lambda_char of q."""
    tc = as_class(q)
    results = [coproduct_Delta(tc), coproduct_delta(tc), canonical_pi_idem(tc), inf_pi(tc),
               eulerian_e(tc)]
    texts = [render_basis(tc), str(lambda_char(tc))]
    return results, texts + [format_terms(x, render=render_basis) for x in results]


def test_memoized_results_match_cold_ones_after_caller_arithmetic():
    rng = random.Random(61)
    inputs = [tc.q for tc in iso_upto(4)] + random_quasi_orders(5, 12, seed=65)
    inputs += random_quasi_orders(6, 12, seed=66)
    for q in inputs:
        clear_topo_memos()
        cold, cold_texts = memoized_results(relabel(q, rng.sample(range(q.n), q.n)))
        kept = [dict(x.terms) for x in cold]
        for x in cold:
            assert x + x == x.scale(2)
            assert x - x == LinComb.zero()
            assert lin_sum([(3, x), (-2, x)]) == -(-x)
        assert inf_pi(cold[2]) == cold[2]
        assert inf_pi(cold[3]) == cold[3]
        assert eulerian_e(cold[4]) == cold[4]
        warm, warm_texts = memoized_results(relabel(q, rng.sample(range(q.n), q.n)))
        assert [x.terms for x in cold] == kept, q
        assert [x.terms for x in warm] == kept, q
        assert warm_texts == cold_texts, q


ROUTES_AND_ORACLES = [
    (inf_pi, pi_chain_oracle),
    (antipode, lambda tc: -pi_chain_oracle(tc)),
    (eulerian_e, lambda tc: eulerian_e(tc, method="direct")),
    (canonical_pi_idem, lambda tc: eulerian_e(tc, method="direct").apply(pi_chain_oracle)),
    (lambda_char, lambda tc: lambda_char(tc, method="delta_series")),
]


def test_a_class_gets_the_shared_cached_result():
    for tc in iso_upto(5):
        one_term = LinComb.single(tc)
        for route, oracle in ROUTES_AND_ORACLES:
            first = route(tc)
            assert route(one_term) is first, (route.__name__, tc)
            assert route(tc) is first, (route.__name__, tc)
            assert first == oracle(tc), (route.__name__, tc)
    with pytest.raises(InputError, match="not augmentation-reduced"):
        inf_pi(unit_class())
    with pytest.raises(InputError, match="not augmentation-reduced"):
        inf_pi(LinComb.single(unit_class()))
    seven = as_class("7; 1<2")
    for route in (eulerian_e, canonical_pi_idem):
        for arg in (seven, LinComb.single(seven), E((1, D1), (2, seven))):
            with pytest.raises(SizeBoundError, match="size bound"):
                route(arg)


def test_a_class_hashes_alike_when_built_cold_and_from_the_memo():
    rng = random.Random(67)
    classes = iso_upto(5)
    built = []
    for tc in classes:
        q = tc.q
        labeled = relabel(q, rng.sample(range(q.n), q.n))
        clear_topo_memos()
        cold = QuasiOrderClass(labeled)
        assert (q.n, tuple(q.rows)) in topo._CANON_MEMO
        hit = QuasiOrderClass(QuasiOrder.closed(q.n, list(q.rows)))
        built.append((cold, hit))
    clear_topo_memos()
    for tc, (cold, hit) in zip(classes, built):
        again = as_class(str(tc))
        for x in (cold, hit, again):
            assert x == tc and hash(x) == hash(tc) == hash(tc.key), tc
    assert len(set(classes) | {x for pair in built for x in pair}) == len(classes)


# The class routes of production, and the helpers only the oracles read.
CLASS_ROUTES = ["_Delta_class", "_delta_class", "_antipode_class", "_pi_class",
                "_upsilon_rec", "_lambda_class", "_e_class"]
ORACLE_HELPERS = ["delta_bar_tuples", "_upsilon_oracle", "_lambda_delta_series", "_e_direct"]


def refuse_calls(monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("a route reached a function it must not share")

    for name in names:
        monkeypatch.setattr(topo, name, refuse)


def test_production_routes_and_oracles_share_no_recursion(monkeypatch):
    """Each side is computed, from cold memos, with the other side's
    functions raising, and the two must agree."""
    classes = iso_upto(4)
    clear_topo_memos()
    refuse_calls(monkeypatch, CLASS_ROUTES)
    oracles = [
        (pi_chain_oracle(tc), upsilon(tc, method="surjection_oracle"),
         lambda_char(tc, method="delta_series"), eulerian_e(tc, method="direct"))
        for tc in classes
    ]
    monkeypatch.undo()
    clear_topo_memos()
    refuse_calls(monkeypatch, ORACLE_HELPERS)
    for tc, want in zip(classes, oracles):
        got = inf_pi(tc), upsilon(tc), lambda_char(tc), eulerian_e(tc)
        assert got == want, tc
        assert antipode(tc) == -want[0], tc


def test_size_bounds_are_checked_before_the_memos():
    seven, eight = as_class("7; 1<2, 3<4"), as_class("8; 1<2")
    refused = [
        (canonical_pi_idem, seven),
        (eulerian_e, seven),
        (coproduct_delta, eight),
        (as_class, "9; 1<2"),
        (coproduct_Delta, "9"),
        (coproduct_delta, "9; 1<2"),
        (inf_pi, "9"),
        (canonical_pi_idem, "9; 1<2"),
    ]
    clear_topo_memos()
    for fn, arg in refused:
        with pytest.raises(SizeBoundError, match="size bound"):
            fn(arg)
    # fill the class routes behind each refusal, then ask again
    topo._pieul_class(seven)
    topo._delta_class(eight)
    for fn, arg in refused:
        with pytest.raises(SizeBoundError, match="size bound"):
            fn(arg)


# -- the topology parsers under mutation -----------------------------------------

FUZZ_TEXTS = [str(tc) for tc in iso_upto(4)]
FUZZ_TEXTS += ["0", "15", "8; 1<2, 3~4, 5<6, 7~8", "6; 1<2, 2<3, 3~4, 5<6"]
# the grammar's characters plus a few that int() reads or refuses
FUZZ_CHARS = "0123456789;,<~ -+_x.\t\n٣"


def mutate(rng, text):
    """One to three random edits: delete, insert or replace a character,
    duplicate a slice, or insert a run of nines (long enough, at times, for
    int() to refuse it)."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        i = rng.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == 1:
            chars.insert(i, rng.choice(FUZZ_CHARS))
        elif op == 2 and chars:
            chars[min(i, len(chars) - 1)] = rng.choice(FUZZ_CHARS)
        elif op == 3:
            j = rng.randrange(len(chars) + 1)
            chars[i:i] = chars[min(i, j):max(i, j)]
        else:
            chars.insert(i, "9" * rng.choice((2, 12, 5000)))
    return "".join(chars)


@pytest.mark.parametrize("seed", range(8))
def test_topology_parsers_end_in_a_result_or_an_algebra_error_promptly(seed):
    rng = random.Random(seed)
    for _ in range(300):
        text = mutate(rng, rng.choice(FUZZ_TEXTS))
        for parse, result_type in ((parse_topology, QuasiOrder), (as_class, QuasiOrderClass)):
            t0 = time.perf_counter()
            try:
                assert isinstance(parse(text), result_type), text
            except (InputError, SizeBoundError):
                pass
            assert time.perf_counter() - t0 < 1.0, text
