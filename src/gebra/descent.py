"""The symmetric-group layer: descents, Dynkin and Solomon elements.

Permutations act on words by place permutation, sigma(y1...yn) being the
word y_sigma(1)...y_sigma(n), so a group algebra element acting on the
multilinear word x1...xn is read off directly from one-line notation.  The
convolution product of two elements splits the positions into a shuffle,
acts on each part, and concatenates; the span of the descent sums De is
closed under it.

The descent span has dimension 2^(n-1), one basis element per composition
of n, and the work runs there.  A DescElem stores one basis, the
equal-descent-set basis, as a LinComb keyed by compositions; Solomon's
idempotent and the Dynkin element are built on it.  The subset basis
differs from it by a triangular sum over coarsenings and is reached only
where a formula needs it, through to_subset/from_subset: the internal
product by Solomon's Mackey formula and the coproduct.  The symmetric
group itself appears only when an element is printed (DescElem.expand, one
pass over the image tuples of S_n) and in the n! reference routes the
tests compare against: de_equal, de_subset, internal_product and
convolution on GroupAlgElem, solomon_log_oracle and lie_projection_check.
Every combination, in either basis or in the group algebra, is summed by
exactlin.term_sum or lin_sum; the one dict updated by hand is the Gaussian
elimination in _row_reduce.  Degrees stop at n = 7 (DEGREE_BOUND).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations, permutations as _permutations
from math import comb
from operator import gt, index

from .exactlin import (
    ONE, Fraction, InputError, LinComb, SizeBoundError, format_terms, lin_sum, parse_scalar,
    term_sum,
)
from .words import Word, compositions, prefixed

DEGREE_BOUND = 7


def _check_degree(n):
    try:
        index(n)
    except TypeError:
        raise InputError(f"degree {n!r} is not an integer") from None
    if n > DEGREE_BOUND:
        raise SizeBoundError(f"size bound: descent computations stop at n = {DEGREE_BOUND}")
    if n < 0:
        raise InputError("negative degree")


class Permutation:
    """A bijection of {1..n} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            images = tuple(map(index, images))
        except TypeError:
            raise InputError(f"not a permutation: {images!r} holds a non-integer") from None
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    @classmethod
    def trusted(cls, images):
        """The permutation with these images, a tuple known to hold 1..n once each."""
        p = cls.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def then(self, other):
        """The composite "self, then other": i -> other(self(i))."""
        if other.n != self.n:
            raise InputError("degree mismatch")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def descent_set(self):
        return frozenset(
            i for i in range(1, self.n) if self.images[i - 1] > self.images[i]
        )

    def act(self, w):
        """Place permutation on a word of the same length."""
        if len(w) != self.n:
            raise InputError(f"length mismatch: word of length {len(w)}, degree {self.n}")
        return Word(w.alphabet, tuple(w.idx[v - 1] for v in self.images))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return (len(self.images), self.images) < (len(other.images), other.images)

    def __le__(self, other):
        return self == other or self < other

    def __str__(self):
        return " ".join(map(str, self.images))

    def __repr__(self):
        return f"Permutation({self.images!r})"


def parse_permutation(text):
    parts = text.replace(",", " ").split()
    if not parts:
        raise InputError("empty permutation text")
    try:
        images = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"bad permutation {text!r}") from None
    return Permutation(images)


def permutations_of(n):
    _check_degree(n)
    for images in _permutations(range(1, n + 1)):
        yield Permutation(images)


class _DegreeElem:
    """A LinComb of terms in one degree n; the linear operations check the degree."""

    __slots__ = ("n", "terms")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def _same_degree(self, other):
        if self.n != other.n:
            raise InputError("degree mismatch")

    def __add__(self, other):
        self._same_degree(other)
        return type(self)(self.n, self.terms + other.terms)

    def __sub__(self, other):
        self._same_degree(other)
        return type(self)(self.n, self.terms - other.terms)

    def __neg__(self):
        return type(self)(self.n, -self.terms)

    def scale(self, c):
        return type(self)(self.n, self.terms.scale(c))

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {self.terms.terms!r})"


class GroupAlgElem(_DegreeElem):
    """An element of the group algebra of one symmetric group."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        _check_degree(n)
        self.n = n
        if terms is None:
            terms = LinComb.zero()
        elif not isinstance(terms, LinComb):
            terms = LinComb(terms)
        for p in terms.terms:
            if p.n != n:
                raise InputError(f"permutation {p} does not live in degree {n}")
        self.terms = terms

    @classmethod
    def trusted(cls, n, terms):
        """The element with these terms, a LinComb known to hold only degree-n keys."""
        g = cls.__new__(cls)
        g.n = n
        g.terms = terms
        return g

    @classmethod
    def single(cls, p, coeff=1):
        return cls(p.n, LinComb.single(p, coeff))

    def coeff(self, p):
        return self.terms.coeff(p)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return format_terms(self.terms)


def parse_group_alg(text):
    terms = []
    n = None
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"empty term in {text!r}")
        if "*" in chunk:
            coeff_text, _, perm_text = chunk.partition("*")
            coeff = parse_scalar(coeff_text)
        else:
            coeff = ONE
            perm_text = chunk
        p = parse_permutation(perm_text)
        if n is None:
            n = p.n
        elif n != p.n:
            raise InputError("mixed degrees in one group algebra element")
        terms.append((p, coeff))
    return GroupAlgElem(n, LinComb.trusted(term_sum([(1, terms)])))


def subset_from_composition(comp):
    """Partial sums: the composition (i1,...,ik) of n gives {i1, i1+i2, ..., n}."""
    out = []
    total = 0
    for part in comp:
        if part < 1:
            raise InputError(f"bad composition {tuple(comp)}")
        total += part
        out.append(total)
    return frozenset(out)


def _descent_flags(n, comp):
    """The descents of the class comp as flags: position i (1..n-1) is a descent or not."""
    S = subset_from_composition(comp)
    return tuple(i in S for i in range(1, n))


def composition_from_subset(n, S):
    S = sorted(S)
    if not S or S[-1] != n or S[0] < 1:
        raise InputError(f"the set {S} must contain its degree {n}")
    comp = []
    prev = 0
    for s in S:
        comp.append(s - prev)
        prev = s
    return tuple(comp)


def _check_index_set(n, S):
    S = frozenset(S)
    if n not in S or not S <= set(range(1, n + 1)):
        raise InputError(
            f"descent index set must contain n and sit inside 1..n, got {sorted(S)}"
        )
    return S - {n}


def de_equal(n, S):
    """Sum of the permutations whose descent set is exactly S minus {n}."""
    _check_degree(n)
    target = _check_index_set(n, S)
    terms = {p: Fraction(1) for p in permutations_of(n) if p.descent_set() == target}
    return GroupAlgElem(n, terms)


def de_subset(n, S):
    """Sum of the permutations whose descent set is contained in S minus {n}."""
    _check_degree(n)
    target = _check_index_set(n, S)
    terms = {p: Fraction(1) for p in permutations_of(n) if p.descent_set() <= target}
    return GroupAlgElem(n, terms)


def dynkin_desc(n):
    """Alternating sum of the initial-segment descent classes.

    In degree n this is sum over i of (-1)^i De_{={1..i}}, the left-to-right
    iterated bracketing [..[[1,2],3]..,n]; on the equal basis the class
    De_{={1..i}} is the hook composition (1^i, n-i).
    """
    _check_degree(n)
    if n < 1:
        raise InputError("dynkin needs n >= 1")
    return DescElem(n, {(1,) * i + (n - i,): (-1) ** i for i in range(n)})


def solomon_desc(n):
    """The canonical idempotent projecting onto the free Lie part.

    On the equal-descent-set basis the coefficient of a composition of
    length k + 1 (k descents) is (-1)^k / (n * binom(n-1, k)).
    """
    _check_degree(n)
    if n < 1:
        raise InputError("solomon needs n >= 1")
    coeffs = {
        c: Fraction((-1) ** (len(c) - 1), n * comb(n - 1, len(c) - 1)) for c in compositions(n)
    }
    return DescElem(n, coeffs)


def solomon_log_series(n):
    """Logarithm of the identity in the convolution algebra, given on the subset basis.

    The coefficient of a composition of length k is (-1)^(k-1)/k; this is
    the series solomon_log_oracle sums in the group algebra.
    """
    _check_degree(n)
    if n < 1:
        raise InputError("needs n >= 1")
    coeffs = {c: Fraction((-1) ** (len(c) - 1), len(c)) for c in compositions(n)}
    return DescElem.from_subset(n, coeffs)


def dynkin(n):
    """The Dynkin element dynkin_desc(n) in the group algebra."""
    return dynkin_desc(n).expand()


def solomon(n):
    """Solomon's idempotent solomon_desc(n) in the group algebra."""
    return solomon_desc(n).expand()


def solomon_log_oracle(n):
    """Logarithm of the identity in the convolution algebra, summed directly.

    Expanding log(unit + (Id - unit)) term by term gives, for each
    composition c of n, the coefficient (-1)^(len(c)-1)/len(c) on the
    subset-basis element De_c; this is an independent route to solomon(n).
    """
    _check_degree(n)
    if n < 1:
        raise InputError("needs n >= 1")
    return GroupAlgElem(n, lin_sum(
        (Fraction((-1) ** (len(c) - 1), len(c)), de_subset(n, subset_from_composition(c)).terms)
        for c in compositions(n)
    ))


def act_on_tensor(g, x):
    """Apply a group algebra element to words, all of length n, linearly."""
    if isinstance(x, Word):
        x = LinComb.single(x)
    return lin_sum((c, x.map_keys(p.act)) for p, c in g.terms.items())


def convolution(g, h):
    """Convolution product: unshuffle the positions, act on each part, concatenate.

    For sigma of degree p and tau of degree q, each p-subset I of 1..p+q
    (with complement J, both kept increasing) contributes the permutation
    whose one-line form is I[sigma(1)]..I[sigma(p)] J[tau(1)]..J[tau(q)].
    """
    p, q = g.n, h.n
    n = p + q
    _check_degree(n)
    all_pos = range(1, n + 1)

    def shuffled(sigma, tau, cd):
        for I in combinations(all_pos, p):
            J = tuple(sorted(set(all_pos) - set(I)))
            images = tuple(I[sigma(i) - 1] for i in range(1, p + 1)) + tuple(
                J[tau(j) - 1] for j in range(1, q + 1)
            )
            yield Permutation(images), cd

    return GroupAlgElem(n, LinComb.trusted(term_sum(
        (1, shuffled(sigma, tau, c * d))
        for sigma, c in g.terms.items()
        for tau, d in h.terms.items()
    )))


def internal_product(g, h):
    """Bilinear extension of composition, (sigma . tau)(i) = tau(sigma(i)).

    With this order, acting on a word by sigma . tau is the same as acting
    by tau first in the formula sense and composing place permutations:
    act(g . h) = act(g) o act(h).
    """
    g._same_degree(h)
    return GroupAlgElem(g.n, LinComb.trusted(term_sum(
        (c, ((sigma.then(tau), d) for tau, d in h.terms.items())) for sigma, c in g.terms.items()
    )))


class DescElem(_DegreeElem):
    """An element of the descent span of one symmetric group.

    terms is a LinComb on the equal-descent-set basis, keyed by compositions
    of n: the composition c stands for the permutations whose descent set is
    exactly subset_from_composition(c) minus {n}.  The subset basis (descents
    contained in those positions) is reached through to_subset/from_subset.
    """

    __slots__ = ()

    def __init__(self, n, terms):
        _check_degree(n)
        if not isinstance(terms, LinComb):
            terms = LinComb(terms)
        for comp in terms.terms:
            if sum(comp) != n or any(i < 1 for i in comp):
                raise InputError(f"{comp} is not a composition of {n}")
        self.n = n
        self.terms = terms

    @classmethod
    def from_subset(cls, n, coeffs):
        """The element with these coefficients on the subset basis."""
        return cls(n, _coarsening_sum(coeffs, signed=False))

    def to_subset(self):
        """The coefficients on the subset basis, as a LinComb."""
        return _coarsening_sum(self.terms, signed=True)

    def expand(self):
        """The underlying group algebra element, from one pass over S_n.

        itertools.permutations yields the image tuples in lex order, which is
        the order of the output; each tuple's descents are read off by
        comparing neighbours, as the flags (images[i] > images[i+1] for each i).
        """
        n = self.n
        by_flags = {_descent_flags(n, comp): c for comp, c in self.terms.terms.items()}
        terms = {}
        for images in _permutations(range(1, n + 1)):
            c = by_flags.get(tuple(map(gt, images, images[1:])))
            if c is not None:
                terms[Permutation.trusted(images)] = c
        return GroupAlgElem.trusted(n, LinComb(terms))

    def internal_product(self, other):
        """The internal product by Solomon's Mackey formula on the subset basis.

        De_p . De_q is the sum of De_r(M) over the matrices M of non-negative
        integers with row sums p and column sums q, where r(M) reads the
        nonzero entries of M row by row.  This agrees with internal_product
        on the expansions.
        """
        self._same_degree(other)
        right = other.to_subset().terms.items()
        left = self.to_subset().terms.items()
        products = lin_sum((c * d, _mackey_readings(p, q)) for p, c in left for q, d in right)
        return DescElem.from_subset(self.n, products)

    @classmethod
    def from_group_alg(cls, g):
        """Recognise an element of the descent span, or raise.

        The coefficient must be constant on each equal-descent class.
        """
        classes = {}
        for p in permutations_of(g.n):
            classes.setdefault(p.descent_set(), []).append(p)
        coeffs = {}
        for desc, perms in classes.items():
            vals = {g.coeff(p) for p in perms}
            if len(vals) != 1:
                raise InputError("not in the descent span")
            val = vals.pop()
            if val:
                coeffs[composition_from_subset(g.n, desc | {g.n})] = val
        return cls(g.n, coeffs)


def _coarsening_sum(coeffs, signed):
    """Move each coefficient onto every coarsening of its composition.

    A coarsening merges adjacent parts; the grouping of the k parts is a
    composition of k.  Signed by (-1)^(parts merged away) this takes the
    equal basis to the subset basis; unsigned, the subset basis back.
    """
    terms = coeffs.terms if isinstance(coeffs, LinComb) else coeffs
    return lin_sum((c, _merges(comp, signed)) for comp, c in terms.items())


@cache
def _merges(comp, signed):
    out = {}
    for grouping in compositions(len(comp)):
        bounds = tuple(accumulate(grouping, initial=0))
        coarse = tuple(sum(comp[a:b]) for a, b in zip(bounds, bounds[1:]))
        out[coarse] = (-1) ** (len(comp) - len(grouping)) if signed else 1
    return out


def parse_composition(text):
    text = text.strip().strip("()")
    if not text:
        return ()
    try:
        comp = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"bad composition {text!r}") from None
    if any(i < 1 for i in comp):
        raise InputError(f"bad composition {text!r}")
    return comp


@cache
def _mackey_readings(rows, cols):
    """r(M) -> the number of matrices M with these row and column sums.

    Filled one row at a time; a column whose sum is used up holds only
    zeros below, so it is dropped from the key.
    """
    if not rows:
        return {(): 1}
    return term_sum(
        (1, prefixed(piece, _mackey_readings(rows[1:], left)))
        for piece, left in _row_fillings(rows[0], cols)
    )


@cache
def _row_fillings(total, cols):
    """Ways to spread total over the columns, entry j at most cols[j].

    Each is (the nonzero entries in column order, the nonzero column sums left).
    """
    if not cols:
        return (((), ()),) if total == 0 else ()
    head, tail = cols[0], cols[1:]
    return tuple(
        ((x,) + piece if x else piece, (head - x,) + left if x < head else left)
        for x in range(max(0, total - sum(tail)), min(head, total) + 1)
        for piece, left in _row_fillings(total - x, tail)
    )


@cache
def _splits(comp):
    """Each part splits as a + b, zero parts dropped: (left, right) -> multiplicity."""
    pieces = {((), ()): 1}
    for part in comp:
        halves = [((a,) if a else (), (part - a,) if a < part else ()) for a in range(part + 1)]
        pieces = term_sum(
            (1, (((left + x, right + y), m) for x, y in halves))
            for (left, right), m in pieces.items()
        )
    return pieces


def desc_coproduct(d):
    """Deconcatenation-style coproduct on the subset basis.

    De_(i1,...,ik) splits multiplicatively: each part ij splits as a + b
    with a + b = ij, zero parts being dropped.  Returns a linear
    combination keyed by pairs (left composition, right composition).
    """
    return d.to_subset().apply(_splits)


@cache
def lie_pivots(n):
    """Row-reduced basis of the multilinear Lie words of degree n.

    The left-normed brackets [..[x1, x_tau(2)], .., x_tau(n)] that start
    with x1 are a basis of that span, (n-1)! of them (Reutenauer, Free Lie
    Algebras, 1993), so the other n! - (n-1)! brackets are not reduced.
    """
    _check_lie_degree(n)
    rows = []
    for rest in _permutations(range(2, n + 1)):
        tau = (1,) + rest
        elt = {(tau[0],): ONE}
        for a in tau[1:]:
            # [u, a] = ua - au; the values stay Fractions, as the pivots divide by them
            elt = term_sum((1, ((word + (a,), c), ((a,) + word, -c))) for word, c in elt.items())
        rows.append(elt)
    pivots = {}
    for row in rows:
        row, lead = _row_reduce(row, pivots)
        if lead is not None:
            c = row[lead]
            pivots[lead] = {k: v / c for k, v in row.items()}
    return pivots


def _row_reduce(row, pivots):
    # In-place Gaussian elimination on a copy of row, not a sum of combinations.
    row = dict(row)
    while row:
        lead = min(row)
        if lead not in pivots:
            return row, lead
        c = row[lead]
        for k, v in pivots[lead].items():
            new = row.get(k, Fraction(0)) - c * v
            if new:
                row[k] = new
            else:
                row.pop(k, None)
    return row, None


LIE_CHECK_BOUND = 6


def _check_lie_degree(n):
    if n > LIE_CHECK_BOUND:
        raise SizeBoundError(f"size bound: the Lie membership test stops at n = {LIE_CHECK_BOUND}")


def lie_projection_check(g):
    """Does g send the multilinear word x1...xn into the free Lie algebra?

    The image is the sum of c_sigma x_sigma(1)..x_sigma(n); membership is
    tested against a row reduction of the left-bracketed spanning words,
    made once per degree.
    """
    n = g.n
    _check_lie_degree(n)
    if n == 0:
        return not g
    vec = {p.images: c for p, c in g.terms.items() if c}
    _, lead = _row_reduce(vec, lie_pivots(n))
    return lead is None
