"""Exact rational scalars, linear combinations, and one-variable polynomials.

Substrate for the whole library: every structure downstream stores its
coefficients in the types defined here, and descent and topo need no other
layer.  All arithmetic is exact; floats do not appear anywhere: as_scalar,
the one coercion of a coefficient that is not already a Fraction, refuses
them.  LinComb is the one combination carrier; Poly is a LinComb keyed by
exponents that adds only the product, evaluation and integration.

Every sum of combinations in the library goes through term_sum (lin_sum
wraps it), with no exception: LinComb arithmetic and the Poly product here,
and the folds of words, binfty, descent and topo.  prefixed feeds term_sum
the terms of a tuple-keyed dict shifted by a prefix, and compositions lists
the compositions of n that descent and topo sum over.

The shared text readers live here too.  parse_ints is the one reader of
integer text, ASCII digits with an optional sign: it refuses the digit
underscores and non-ASCII digits that Python's int would take, as
parse_scalar does.  as_int is the one check of integer values, and
parse_terms reads the "c*key + key" term lists of words and descent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import index


class AlgebraError(ValueError):
    """Base class for all library errors."""


class InputError(AlgebraError):
    """Malformed input, partial tables, violated preconditions."""


class SizeBoundError(AlgebraError):
    """A computation was requested beyond its supported size bound."""


# Scalars are plain fractions: arbitrary precision, eagerly normalized on
# construction, denominator kept positive.  str() already prints "p/q" with
# the "/q" omitted when the denominator is 1, which is the text form used
# everywhere in this package.
Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _plain(text):
    """No digit underscore and no non-ASCII character: the integer rule."""
    return text.isascii() and "_" not in text


def parse_ints(texts):
    """The integers written in the strings texts, each ASCII digits with an
    optional sign; the rule is checked once for all of them."""
    if _plain("".join(texts)):
        try:
            return list(map(int, texts))
        except ValueError:
            pass
    raise InputError(f"bad integer in {' '.join(texts)!r}")


def as_int(x, what):
    """x as an int through operator.index, so 2.5, 2.0 or "3" is refused."""
    try:
        return index(x)
    except TypeError:
        raise InputError(f"{what} {x!r} is not an integer") from None


def parse_scalar(text):
    """Parse "p/q" (or "p") into a Fraction.  Decimal and exponent notation,
    digit underscores and non-ASCII digits are rejected."""
    text = text.strip()
    if "." in text:
        raise InputError(f"bad scalar {text!r}: decimal notation not accepted")
    if "e" in text or "E" in text or not _plain(text):
        raise InputError(f"bad scalar {text!r}: write an integer p or a fraction p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError("zero divisor") from None
    except ValueError:
        raise InputError(f"bad scalar {text!r}") from None


def parse_terms(text, parse_key, bare=None):
    """The unsummed (key, coefficient) pairs of the term list "c*key + key".

    A term splits on its first "*" into a scalar and parse_key of the rest;
    bare reads a term without "*", by default as parse_key of it times 1.
    """
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"empty term in {text!r}")
        coeff_text, star, key_text = chunk.partition("*")
        if star:
            coeff = parse_scalar(coeff_text)
            terms.append((parse_key(key_text), coeff))
        else:
            terms.append(bare(chunk) if bare else (parse_key(chunk), ONE))
    return terms


def as_scalar(c):
    """c as a Fraction.  A float is refused: its binary expansion, not the
    number written, would become the coefficient (0.1 would store
    3602879701896397/36028797018963968)."""
    if isinstance(c, float):
        raise InputError(f"float coefficient {c!r}: write an int or a Fraction")
    return Fraction(c)


def scalar_div(a, b):
    """Exact division, the one scalar operation with a precondition."""
    b = as_scalar(b)
    if b == 0:
        raise InputError("zero divisor")
    return as_scalar(a) / b


class LinComb:
    """Finite linear combination over an ordered family of basis keys.

    Keys must be hashable and mutually comparable; iteration is always in
    sorted key order so that printing is deterministic.  Every stored
    coefficient is a nonzero Fraction, which is why +, -, negation, map_keys
    and tensor_pair may wrap their results with trusted.  Sums, differences,
    negatives and multiples are of the type of the left operand, so that a
    subclass keyed by a basis of its own (Poly) keeps its type; such a
    subclass adds and subtracts only its own kind.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not Fraction:
                    c = as_scalar(c)
                if c:
                    clean[k] = c
        self.terms = clean

    @classmethod
    def trusted(cls, terms):
        """The combination with these terms, a dict known to hold only nonzero Fractions."""
        x = cls.__new__(cls)
        x.terms = terms
        return x

    @classmethod
    def single(cls, key, coeff=ONE):
        return cls({key: coeff})

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, key):
        return self.terms.get(key, ZERO)

    def support(self):
        return sorted(self.terms)

    def items(self):
        """Term list in sorted key order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.trusted(term_sum(((1, self.terms.items()), (1, other.terms.items()))))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.trusted(term_sum(((1, self.terms.items()), (-1, other.terms.items()))))

    def __neg__(self):
        return self.trusted({k: -c for k, c in self.terms.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        if type(c) is not Fraction:
            c = as_scalar(c)
        return type(self)({k: c * v for k, v in self.terms.items()})

    def apply(self, f):
        """Linear extension: sum of coeff * f(key), f returning a LinComb."""
        return lin_sum((c, f(k)) for k, c in self.terms.items())

    def map_keys(self, f):
        """Push forward along a key map; colliding images accumulate."""
        return LinComb.trusted(term_sum([(1, ((f(k), c) for k, c in self.terms.items()))]))

    def __repr__(self):
        return f"LinComb({self.terms!r})"


class Poly(LinComb):
    """Polynomial in one variable X with Fraction coefficients.

    A LinComb keyed by exponents, so its sums, differences, negation and
    scaling are LinComb's; the product, evaluation and integration are its
    own.  The text form lists terms by descending exponent, e.g. "6X^2+6X+1".
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        terms = {}
        for k, c in (coeffs or {}).items():
            k = as_int(k, "exponent")
            if k < 0:
                raise InputError(f"negative exponent {k} in polynomial")
            terms[k] = c
        super().__init__(terms)

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def x_power(cls, k, c=1):
        return cls({k: c})

    def degree(self):
        """Maximal stored exponent, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return super().__mul__(other)
        return Poly(term_sum(
            (c1, ((k1 + k2, c2) for k2, c2 in other.terms.items()))
            for k1, c1 in self.terms.items()
        ))

    def __call__(self, t):
        t = as_scalar(t)
        return sum((c * t**k for k, c in self.terms.items()), ZERO)

    def integrate_unit_interval(self):
        """Exact integral over [-1, 0]: the X^k term contributes (-1)^k/(k+1)."""
        total = ZERO
        for k, c in self.terms.items():
            total += c * Fraction((-1) ** k, k + 1)
        return total

    def listing(self):
        """The (basis, coefficient) pairs by descending exponent, the basis
        written "1", "X" or "X^k": the order and names of every printed form."""
        return [
            ("1" if k == 0 else "X" if k == 1 else f"X^{k}", self.terms[k])
            for k in sorted(self.terms, reverse=True)
        ]

    def __str__(self):
        out = ""
        for basis, c in self.listing():
            if basis == "1":
                part = str(c)
            else:
                part = ("" if c == 1 else "-" if c == -1 else str(c)) + basis
            out += part if not out or part.startswith("-") else "+" + part
        return out or "0"

    def __repr__(self):
        return f"Poly({self.terms!r})"


def term_sum(pairs):
    """The sum of c * x over the (c, x) pairs, as one dict with no zero value.

    x is an iterable of (key, coefficient) items, such as dict.items(); a
    coefficient c of 1 adds x unscaled.  Coefficients are added as they
    come, ints and Fractions alike, with no coercion: int values scaled by
    int c stay ints, so a caller that later divides the values with / feeds
    Fraction values.  This is the one accumulation idiom: nothing is copied
    or re-normalized per summand, and lin_sum wraps the result in a LinComb.
    """
    out = {}
    get = out.get
    for c, items in pairs:
        scaled = c != 1
        for k, v in items:
            if scaled:
                v = c * v
            prev = get(k)
            out[k] = v if prev is None else prev + v
    if all(out.values()):
        return out
    return {k: v for k, v in out.items() if v}


def lin_sum(pairs):
    """The combination sum of c * x over the (c, x) pairs.

    x is a LinComb or a plain dict key -> coefficient.
    """
    return LinComb(
        term_sum((c, (x.terms if isinstance(x, LinComb) else x).items()) for c, x in pairs)
    )


def reduced(c):
    """An exact scalar as an int when it is integral, else as a Fraction."""
    return c.numerator if c.denominator == 1 else c


def prefixed(u, x):
    """The terms of x, keyed by tuples, with the tuple u concatenated in front."""
    return zip(map(u.__add__, x), x.values())


def compositions(n):
    """All compositions of n, by length then lexicographically."""
    n = as_int(n, "composition size")
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for cuts in combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def tensor_pair(x, y):
    """Bilinear pairing of two combinations into pairs of keys."""
    return LinComb.trusted(term_sum(
        (c1, (((k1, k2), c2) for k2, c2 in y.terms.items())) for k1, c1 in x.terms.items()
    ))


def format_terms(x, render=str):
    """Deterministic "c*key + ..." rendering shared by the printable carriers.

    A coefficient of exactly 1 is left implicit; everything else, including
    -1, is printed in front of the basis key with a "*".  A run of terms
    that share one coefficient object renders it once, as neighbouring
    words from words.word_comb (one Fraction per distinct value) often do.
    """
    if not x:
        return "0"
    parts = []
    prev = label = None
    for k, c in x.items():
        if c is not prev:
            prev = c
            label = "" if c == 1 else f"{c}*"
        parts.append(label + render(k))
    return " + ".join(parts)
