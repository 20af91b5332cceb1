"""Canonical idempotents and the isomorphisms onto the shuffle algebra.

For a commutative B-infinity structure the canonical idempotent e acts on a
word by the alternating sum over its block decompositions of the induced
products of the blocks; composing with the projection onto V gives the
canonical tangent-to-identity map varpi.  Lifting varpi through the cofree
coalgebra yields a Hopf isomorphism omega onto the shuffle algebra, whose
inverse zeta admits both a direct recursion and the generic inverse of the
coalgebra endomorphism.  For quasi-shuffle structures both specialize to
Hoffman's logarithm and exponential in closed form.

None of the sums over the 2^(n-1) block decompositions is enumerated.  They
are recursions over cut positions with O(n^2) sub-results: e and varpi by a
Horner scheme over prefixes of the left-folded block products (bilinearity
only, no associativity assumed), and the lifts in omega and zeta by
words.memo_lift.  Each top-level call keeps its own product memo and, for
omega and zeta, its own varpi cache; nothing is cached between calls.
Hoffman's closed forms stay apart as the independent check on the
quasi-shuffle case.
"""

from __future__ import annotations

from functools import cache

from .exactlin import Fraction, InputError, LinComb, lin_sum
from .words import (
    as_tensor,
    memo_lift,
    prefixed,
    structure_endo,
)
from .binfty import QUASI_SHUFFLE, BInftyStructure, induced_product


def _letter_part(x):
    return LinComb({u: c for u, c in x.terms.items() if len(u) == 1})


def _left_fold_sum(B, w, coeffs, memo, maxlen=None):
    """Sum over k of coeffs[k-1] times the decompositions of w into k blocks,
    each read as the left-folded product ((b1 b2) b3) ... bk.

    With L_k(j) the k-block fold sum of the prefix w[:j] and
    G_m(j) = sum over k of coeffs[k+m-1] L_k(j), the Horner step
    G_m(j) = coeffs[m] w[:j] + sum over 0 < i < j of G_{m+1}(i) w[i:j]
    uses only L_k(j) = sum over i of L_{k-1}(i) w[i:j]; the answer is G_0(n).
    maxlen drops longer words from every G; this is exact only for a
    structure whose bracket vanishes past letters, where no product is
    shorter than its longer factor.
    """
    n = len(w)
    if n == 0:
        return LinComb.zero()
    top = n if maxlen is None else maxlen
    prev = None
    for m in range(n - 1, -1, -1):
        cur = [None] * (n - m + 1)
        for j in range(1, n - m + 1):
            parts = [(coeffs[m], LinComb.single(w[:j]))] if j <= top else []
            parts += [
                (1, induced_product(B, prev[i], w[i:j], memo))
                for i in range(max(1, j - top), j)
                if prev[i]
            ]
            g = lin_sum(parts)
            if top < n:
                g = LinComb({u: c for u, c in g.terms.items() if len(u) <= top})
            cur[j] = g
        prev = cur
    return prev[n]


def _signed_reciprocals(n, shift=0):
    """(-1)^(k-1+shift) / (k+shift) for k = 1..n."""
    return [Fraction((-1) ** (k - 1 + shift), k + shift) for k in range(1, n + 1)]


def _varpi_word(B, w, memo):
    """<w[:i], T_i> summed over heads, T_i the alternating fold sum of w[i:].

    A head longer than the bracket's support brackets to zero against every
    nonempty word and is skipped, and T_i is needed only up to the support.
    """
    n = len(w)
    if n <= 1:
        return LinComb.single(w) if n else LinComb.zero()
    support = B.support
    parts = []
    for i in range(1, n if support is None else min(n, support + 1)):
        tail = _left_fold_sum(B, w[i:], _signed_reciprocals(n - i, 1), memo, support)
        parts.append((1, B.bracket_elem(w[:i], tail)))
    return lin_sum(parts)


def eulerian_idempotent(B, x):
    """The canonical idempotent e of the induced Hopf product.

    On a word of length n it is the sum over k = 1..n and over all
    decompositions into k nonempty blocks of (-1)^(k-1)/k times the induced
    product of the blocks.  It kills the unit word and fixes letters.
    """
    memo = {}
    return lin_sum(
        (c, _left_fold_sum(B, w, _signed_reciprocals(len(w)), memo))
        for w, c in as_tensor(x).terms.items()
    )


def varpi(B, x):
    """The canonical B-infinity idempotent: the projection of e onto V.

    Evaluates as the alternating sum of brackets <w1, w2 * ... * wk> over
    block decompositions; the one-block term is the projection onto V.
    """
    memo = {}
    return lin_sum((c, _varpi_word(B, w, memo)) for w, c in as_tensor(x).terms.items())


def _cached_varpi(B):
    """varpi on single words, cached for as long as it is kept."""
    products = {}
    return cache(lambda w: _varpi_word(B, w, products))


class TangentEndo:
    """Extensional presentation of a tangent-to-identity endomorphism.

    A finite table on nonempty words up to a length bound; evaluation kills
    the unit word, and a word past the table is an error.  verify() checks
    the defining properties against a structure's product: letters are
    fixed and every product of two nonempty words is sent to zero.
    """

    __slots__ = ("alphabet", "table", "bound")

    def __init__(self, alphabet, table, bound):
        self.alphabet = alphabet
        self.bound = int(bound)
        clean = {}
        for w, val in table.items():
            clean[w] = as_tensor(val) if val else LinComb.zero()
        self.table = clean

    @classmethod
    def from_function(cls, alphabet, fn, bound):
        table = {w: fn(w) for w in alphabet.words(bound, minlen=1)}
        return cls(alphabet, table, bound)

    def __call__(self, w):
        if w.is_empty():
            return LinComb.zero()
        try:
            return self.table[w]
        except KeyError:
            raise InputError(f"partial map: no value for {w}") from None

    def verify(self, B):
        """Bounded check of the tangent-to-identity properties."""
        alphabet = self.alphabet
        for i in range(len(alphabet)):
            v = alphabet.letter(i)
            if self(v) != LinComb.single(v):
                return False
        for w in alphabet.words(self.bound - 1, minlen=1):
            for w2 in alphabet.words(self.bound - len(w), minlen=1):
                img = induced_product(B, w, w2).apply(self)
                if img:
                    return False
        return True


def eulerian_tangent(B, bound):
    """The canonical idempotent packaged as a verified table up to bound."""
    return TangentEndo.from_function(
        B.alphabet, lambda w: eulerian_idempotent(B, w), bound
    )


def omega_tilde(B, x, endo=None):
    """Hopf isomorphism from the induced product onto the shuffle product.

    Built as the coalgebra endomorphism of the projection pi_V composed with
    a tangent-to-identity endomorphism; the default endomorphism is the
    canonical idempotent, whose projection is varpi.  A supplied
    endomorphism is verified first.
    """
    x = as_tensor(x)
    if not x:
        return x
    if endo is None:
        pi = _cached_varpi(B)
    else:
        if not endo.verify(B):
            raise InputError("not tangent to identity")
        pi = lambda w: _letter_part(endo(w))
    return structure_endo(pi, x)


def zeta_tilde(B, x):
    """Inverse of the canonical omega_tilde, via the zeta recursion.

    zeta fixes letters and, on longer words, is minus the sum over proper
    block decompositions of varpi applied to the word of zeta images; its
    lift through the cofree coalgebra inverts omega_tilde.
    """
    x = as_tensor(x)
    if not x:
        return x
    vp = _cached_varpi(B)

    @cache
    def zeta(w):
        n = len(w)
        if n == 0:
            raise InputError("partial map: no value for the unit word")
        if n == 1:
            return LinComb.single(w)
        # the patterns of two or more blocks: a proper prefix, then any
        # decomposition of the rest
        patterns = lin_sum(
            (c, prefixed(u, lift(w[j:])))
            for j in range(1, n)
            for u, c in zeta(w[:j]).terms.items()
        )
        return -patterns.apply(vp)

    lift = memo_lift(zeta)
    return lin_sum((c, lift(w)) for w, c in x.terms.items())


def _fold_mult(B_or_mult, w):
    if isinstance(B_or_mult, BInftyStructure):
        if B_or_mult.mode != QUASI_SHUFFLE:
            raise InputError("Hoffman closed forms need a quasi_shuffle structure")
        mult = B_or_mult.mult
    else:
        mult = B_or_mult
    names = w.names
    acc = names[0]
    for name in names[1:]:
        try:
            acc = mult[(acc, name)]
        except KeyError:
            raise InputError(f"multiplication table is missing {acc} * {name}") from None
    return LinComb.single(w.alphabet.letter(w.alphabet.index(acc)))


def hoffman_log(mult, w):
    """Closed form of varpi for a quasi-shuffle: (-1)^(n-1)/n v1...vn."""
    n = len(w)
    if n == 0:
        return LinComb.zero()
    return Fraction((-1) ** (n - 1), n) * _fold_mult(mult, w)


def hoffman_exp(mult, w):
    """Closed form of zeta for a quasi-shuffle: 1/n! v1...vn."""
    n = len(w)
    if n == 0:
        return LinComb.zero()
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return Fraction(1, fact) * _fold_mult(mult, w)
