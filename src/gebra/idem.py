"""Canonical idempotents and the isomorphisms onto the shuffle algebra.

For a commutative B-infinity structure the canonical idempotent e acts on a
word by the alternating sum over its block decompositions of the induced
products of the blocks; composing with the projection onto V gives the
canonical tangent-to-identity map varpi.  Lifting varpi through the cofree
coalgebra (words.memo_lift, the one route to omega) yields a Hopf
isomorphism omega onto the shuffle algebra, whose inverse zeta admits both a
direct recursion and the generic inverse of the coalgebra endomorphism.  For
quasi-shuffle structures both specialize to Hoffman's logarithm and
exponential in closed form.  Another tangent-to-identity map E lifts the
same way, as words.structure_endo of the letter part of E.

None of the sums over the 2^(n-1) block decompositions is enumerated.  For
the shuffle product e is read off in closed form: it is the first Eulerian
idempotent of Q[S_n] acting by place permutation, whose coefficients depend
only on the number of descents (the element descent.solomon(n) expands).
e on every other structure, and varpi, are recursions over cut positions
with O(n^2) sub-results: a Horner scheme over prefixes of the left-folded
block products (bilinearity only, no associativity assumed); the lifts in
omega and zeta are words.memo_lift.  All of them run on the word-side
kernel of binfty and words (index tuples, plain dicts, exactlin.term_sum)
over a common denominator: e on words of length <= n is summed as
lcm(1..n) times its value, and varpi, zeta and the lifts as |w|! times
theirs, so integral brackets keep every sum in ints.

|w|! varpi(w) and |w|! zeta(w) depend only on the structure and the word,
and each is a combination of at most |alphabet| letters: they are kept on
the structure (BInftyStructure.letter_maps) and dropped with it.  A value
that raised is never kept.  Everything that holds full tensors lives for
one top-level call: the product memo and the lifts.  Hoffman's closed
forms stay apart as the independent check on the quasi-shuffle case.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import permutations
from math import comb, factorial, lcm
from operator import gt

from .exactlin import Fraction, InputError, LinComb, prefixed, reduced, term_sum
from .words import Word, apply_scaled, as_tensor, lift_comb, memo_lift, word_comb
from .binfty import QUASI_SHUFFLE, SHUFFLE, product_terms


def _left_fold_sum(B, w, coeffs, memo, maxlen=None):
    """Sum over k of coeffs[k-1] times the decompositions of the index tuple
    w into k blocks, each read as the left-folded product ((b1 b2) b3) ... bk.

    With L_k(j) the k-block fold sum of the prefix w[:j] and
    G_m(j) = sum over k of coeffs[k+m-1] L_k(j), the Horner step
    G_m(j) = coeffs[m] w[:j] + sum over 0 < i < j of G_{m+1}(i) w[i:j]
    uses only L_k(j) = sum over i of L_{k-1}(i) w[i:j]; the answer is G_0(n).
    The callers scale the signed reciprocals (-1)^(k-1)/k of e (and those
    of varpi) by a common denominator L, a multiple of lcm(1..n), so the
    coeffs are ints and the result is L times the sum: every G stays in
    ints wherever the bracket is integral, and the caller divides by L once
    per output term.  An explicit table with non-integral values brings in
    Fractions through the same int/Fraction arithmetic.  maxlen drops
    longer words from every G; this is exact only for a structure whose
    bracket vanishes past letters, where no product is shorter than its
    longer factor.
    """
    n = len(w)
    if n == 0:
        return {}
    top = n if maxlen is None else maxlen
    prev = None
    for m in range(n - 1, -1, -1):
        cur = [None] * (n - m + 1)
        for j in range(1, n - m + 1):
            parts = [(coeffs[m], ((w[:j], 1),))] if j <= top else []
            for i in range(max(1, j - top), j):
                block = w[i:j]
                parts.extend(
                    (c, product_terms(B, v, block, memo).items()) for v, c in prev[i].items()
                )
            g = term_sum(parts)
            if top < n:
                g = {u: c for u, c in g.items() if len(u) <= top}
            cur[j] = g
        prev = cur
    return prev[n]


def _signed_reciprocals(n, scale, shift=0):
    """scale * (-1)^(k-1+shift) / (k+shift) for k = 1..n, an int when k+shift divides scale."""
    return [reduced(Fraction((-1) ** (k - 1 + shift) * scale, k + shift)) for k in range(1, n + 1)]


def _varpi_terms(B, w, memo, scale):
    """scale * varpi(w) on an index tuple: <w[:i], T_i> summed over heads,
    T_i the alternating fold sum of w[i:].

    A head longer than the bracket's support brackets to zero against every
    nonempty word and is skipped, and T_i is needed only up to the support.
    """
    n = len(w)
    if n <= 1:
        return {w: scale} if n else {}
    support = B.support
    parts = []
    for i in range(1, n if support is None else min(n, support + 1)):
        tail = _left_fold_sum(B, w[i:], _signed_reciprocals(n - i, scale, 1), memo, support)
        parts.extend((c, B.bracket_terms(w[:i], v)) for v, c in tail.items())
    return term_sum(parts)


@cache
def _inverse_descents(n):
    """For each tau of itertools.permutations(range(n)), in that order, the
    number of descents of its inverse (the i with i + 1 placed before i),
    as bytes: n! of them, 5040 bytes at n = 7."""
    out = bytearray()
    for tau in permutations(range(n)):
        places = sorted(range(n), key=tau.__getitem__)
        out.append(sum(map(gt, places, places[1:])))
    return bytes(out)


def _shuffle_eulerian_terms(w, scale):
    """scale * e(w) for the shuffle product, as (index tuple, coefficient) items.

    e is the first Eulerian idempotent of Q[S_n] acting by place
    permutation: letter i of w goes to place sigma(i), with coefficient
    (-1)^d / (n C(n-1, d)), d the number of descents of sigma (Reutenauer,
    Free Lie Algebras, ch. 3).  A permuted word w[tau(0)]...w[tau(n-1)] is
    placed by sigma = tau^-1, and n C(n-1, d) divides lcm(1..n), which
    divides scale.  Repeated letters give repeated words, which the caller's
    term_sum merges.
    """
    n = len(w)
    if n == 0:
        return ()
    coeffs = [(-1) ** d * (scale // (n * comb(n - 1, d))) for d in range(n)]
    return zip(permutations(w), map(coeffs.__getitem__, _inverse_descents(n)))


def eulerian_idempotent(B, x):
    """The canonical idempotent e of the induced Hopf product.

    On a word of length n it is the sum over k = 1..n and over all
    decompositions into k nonempty blocks of (-1)^(k-1)/k times the induced
    product of the blocks.  It kills the unit word and fixes letters.  For
    the shuffle product this sum is read off in closed form.
    """
    alphabet, terms, d = B.index_terms(x)
    scale = lcm(*range(1, max(map(len, terms), default=0) + 1))
    if B.mode == SHUFFLE:
        out = term_sum((c, _shuffle_eulerian_terms(w, scale)) for w, c in terms.items())
    else:
        memo = {}
        out = term_sum(
            (c, _left_fold_sum(B, w, _signed_reciprocals(len(w), scale), memo).items())
            for w, c in terms.items()
        )
    return word_comb(alphabet, out, d * scale)


def _kept(B, name, compute):
    """compute on index tuples, its values kept on B under name.

    Only a value that was computed is kept: a call that raises, such as an
    explicit table evaluated past its bound, stores nothing and raises the
    same way on the next call.
    """
    values = B.letter_maps.setdefault(name, {})

    def kept(w):
        hit = values.get(w)
        if hit is None:
            hit = values[w] = compute(w)
        return hit

    return kept


def _scaled_varpi(B):
    """|w|! varpi(w) on index tuples, kept on B; the products it makes on
    the way are memoized for as long as this function is."""
    products = {}
    return _kept(B, "varpi", lambda w: _varpi_terms(B, w, products, factorial(len(w))))


def varpi(B, x):
    """The canonical B-infinity idempotent: the projection of e onto V.

    Evaluates as the alternating sum of brackets <w1, w2 * ... * wk> over
    block decompositions; the one-block term is the projection onto V.
    """
    return lift_comb(_scaled_varpi(B), *B.index_terms(x))


def omega_tilde(B, x):
    """Hopf isomorphism from the induced product onto the shuffle product.

    The coalgebra endomorphism whose projection onto V is varpi: its
    words.memo_lift, over the same kept |w|! varpi values.
    """
    x = as_tensor(x)
    if not x:
        return x
    return lift_comb(memo_lift(_scaled_varpi(B)), *B.index_terms(x))


def zeta_tilde(B, x):
    """Inverse of the canonical omega_tilde, via the zeta recursion.

    zeta fixes letters and, on longer words, is minus the sum over proper
    block decompositions of varpi applied to the word of zeta images; its
    lift through the cofree coalgebra inverts omega_tilde.
    """
    x = as_tensor(x)
    if not x:
        return x
    vp = _scaled_varpi(B)

    def scaled_zeta(t):
        """|t|! zeta(t), scaled as memo_lift expects."""
        n = len(t)
        if n == 1:
            return {t: 1}
        # minus n! times the patterns of two or more blocks: a proper
        # prefix, then any decomposition of the rest
        patterns = term_sum(
            (-comb(n, j) * c, prefixed(u, rest))
            for j in range(1, n)
            for rest in (lift(t[j:]),)
            for u, c in zeta(t[:j]).items()
        )
        return apply_scaled(vp, patterns)

    zeta = _kept(B, "zeta", scaled_zeta)
    lift = memo_lift(zeta)
    return lift_comb(lift, *B.index_terms(x))


def _fold_mult(B, w):
    """The letter v1 * ... * vn of a nonempty word w of a quasi-shuffle B.

    w is read through B.index_terms, which refuses a word past WORD_BOUND
    and one over another alphabet, before the mode is checked.
    """
    if not isinstance(w, Word):
        raise InputError(f"Hoffman closed forms take a word, not a {type(w).__name__}")
    alphabet, terms, _ = B.index_terms(w)
    if B.mode != QUASI_SHUFFLE:
        raise InputError("Hoffman closed forms need a quasi_shuffle structure")
    (idx,) = terms
    return LinComb.single(alphabet.letter(reduce(B.letter_product, idx)))


def hoffman_log(B, w):
    """Closed form of varpi(w) on a quasi-shuffle structure B: (-1)^(n-1)/n v1...vn."""
    n = len(w)
    if n == 0:
        return LinComb.zero()
    return Fraction((-1) ** (n - 1), n) * _fold_mult(B, w)


def hoffman_exp(B, w):
    """Closed form of zeta(w) on a quasi-shuffle structure B: 1/n! v1...vn."""
    n = len(w)
    if n == 0:
        return LinComb.zero()
    return Fraction(1, factorial(n)) * _fold_mult(B, w)
