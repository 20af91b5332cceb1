"""The descent algebra as the graded dual of QSym, checked exactly.

QSym is the quasi-shuffle algebra on x_i * x_j = x_{i+j}; the word
x_I = x_{i1}...x_{ik} is the monomial M_I.  DescElem on its subset basis is
NSym's complete basis S^I in one degree, and desc_coproduct is NSym's
coproduct on it; the pairing <M_I, S^J> = delta_IJ (Malvenuto and
Reutenauer, Duality between quasi-symmetric functions and the Solomon
descent algebra, J. Algebra 177, 1995).  Each identity below reads one
operation on the word side as the transpose of one on the descent side.

qs8 is x_i * x_j = x_min(i+j, 8), so on weights <= 7 it is QSym: its
saturation never acts.  The two sides share only exactlin.compositions and
exactlin.term_sum; the word side runs binfty and idem, the descent side
descent, and neither calls the other.  A fault shared by a route and its
same-layer oracle can pass that layer's tests, but not these.

Each test states a wall-clock budget, at least 1 s and at least 5x its time
in process on a 2-vCPU VM, and asserts it.
"""

import time

from gebra.binfty import induced_product
from gebra.descent import DescElem, convolution, desc_coproduct, solomon_desc
from gebra.exactlin import compositions, term_sum
from gebra.idem import eulerian_idempotent, omega_tilde
from gebra.words import parse_word

TOP = 7


def x(qs8, comp):
    """The word x_I of qs8 for the composition I."""
    return parse_word(".".join(f"x{i}" for i in comp), qs8.alphabet)


def S(comp):
    """NSym's S^I: the subset-basis element of composition I."""
    return DescElem.from_subset(sum(comp), {comp: 1})


def _pairs(n):
    """The pairs (I, J) of nonempty compositions with |I| + |J| = n."""
    return [(I, J) for p in range(1, n) for I in compositions(p) for J in compositions(n - p)]


def test_quasi_shuffle_is_the_transpose_of_desc_coproduct(qs8):
    """<x_I * x_J, S^K> = <x_I (x) x_J, Delta S^K>: 15474 cases of degrees
    2-7.  Budget 2 s (0.11 s measured)."""
    t0 = time.monotonic()
    cases = 0
    for n in range(2, TOP + 1):
        coproducts = {K: desc_coproduct(S(K)) for K in compositions(n)}
        for I, J in _pairs(n):
            product = induced_product(qs8, x(qs8, I), x(qs8, J))
            for K, coproduct in coproducts.items():
                assert product.coeff(x(qs8, K)) == coproduct.coeff((I, J)), (I, J, K)
                cases += 1
    assert cases == 15474
    assert time.monotonic() - t0 < 2.0


def test_convolution_is_concatenation_on_the_subset_basis():
    """S^I S^J = S^(I+J) in the group algebras: the 129 pairs of total
    degree <= 6 (the 192 of degree 7 take 1.9 s).  Budget 1.5 s (0.15 s measured)."""
    t0 = time.monotonic()
    pairs = [pair for n in range(2, TOP) for pair in _pairs(n)]
    for I, J in pairs:
        assert convolution(S(I).expand(), S(J).expand()) == S(I + J).expand(), (I, J)
    assert len(pairs) == 129
    assert time.monotonic() - t0 < 1.5


def test_eulerian_idempotent_is_the_transpose_of_solomon_on_the_left(qs8):
    """<e(x_I), S^K> = <x_I, E_n . S^K>, E_n = solomon_desc(n) and . the
    internal product with E_n on the left: 5461 cases of degrees 1-7.
    Budget 3 s (0.54 s measured)."""
    t0 = time.monotonic()
    cases = 0
    for n in range(1, TOP + 1):
        E = solomon_desc(n)
        products = {K: E.internal_product(S(K)).to_subset() for K in compositions(n)}
        for I in compositions(n):
            e = eulerian_idempotent(qs8, x(qs8, I))
            for K, product in products.items():
                assert e.coeff(x(qs8, K)) == product.coeff(I), (I, K)
                cases += 1
    assert cases == 5461
    assert time.monotonic() - t0 < 3.0


def _solomon_products(n):
    """K -> E_k1 ... E_kl on the subset basis, for the compositions K of n,
    E_k = solomon_desc(k) and the product concatenating compositions."""
    out = {}
    for K in compositions(n):
        acc = {(): 1}
        for k in K:
            factor = solomon_desc(k).to_subset().terms.items()
            acc = term_sum((c, ((I + J, d) for J, d in factor)) for I, c in acc.items())
        out[K] = acc
    return out


def test_omega_tilde_is_the_transpose_of_solomon_products(qs8):
    """<omega(x_I), S^K> = <x_I, E_k1 ... E_kl>: Hoffman's log on QSym is,
    dually, the change of basis S^K -> E^K.  5461 cases of degrees 1-7.
    Budget 1 s (0.06 s measured)."""
    t0 = time.monotonic()
    cases = 0
    for n in range(1, TOP + 1):
        products = _solomon_products(n)
        for I in compositions(n):
            omega = omega_tilde(qs8, x(qs8, I))
            for K, product in products.items():
                assert omega.coeff(x(qs8, K)) == product.get(I, 0), (I, K)
                cases += 1
    assert cases == 5461
    assert time.monotonic() - t0 < 1.0
