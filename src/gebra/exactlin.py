"""Exact rational scalars, one-variable polynomials, and linear combinations.

Substrate for the whole library: every structure downstream stores its
coefficients in the types defined here.  All arithmetic is exact; floats do
not appear anywhere.

Every sum of combinations in the library goes through term_sum (lin_sum
wraps it): Poly and LinComb arithmetic here, and the folds of words,
binfty, descent and topo.  Two places update a dict entry by hand and are
not sums: the Gaussian elimination in descent._row_reduce and the one-entry
adjustment in words.inverse_structure_endo.
"""

from __future__ import annotations

from fractions import Fraction


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


def parse_scalar(text):
    """Parse "p/q" (or "p") into a Fraction.  Decimal and exponent notation,
    digit underscores and non-ASCII digits are rejected."""
    text = text.strip()
    if "." in text:
        raise InputError(f"bad scalar {text!r}: decimal notation not accepted")
    if "e" in text or "E" in text or "_" in text or not text.isascii():
        raise InputError(f"bad scalar {text!r}: write an integer p or a fraction p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError("zero divisor") from None
    except ValueError:
        raise InputError(f"bad scalar {text!r}") from None


def scalar_div(a, b):
    """Exact division, the one scalar operation with a precondition."""
    b = Fraction(b)
    if b == 0:
        raise InputError("zero divisor")
    return Fraction(a) / b


class Poly:
    """Polynomial in one variable X with Fraction coefficients.

    Stored as a map exponent -> coefficient with no zero entries.  The text
    form lists terms by descending exponent, e.g. "6X^2+6X+1".
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if k < 0:
                    raise InputError(f"negative exponent {k} in polynomial")
                c = Fraction(c)
                if c:
                    clean[int(k)] = c
        self.coeffs = clean

    @classmethod
    def const(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def x_power(cls, k, c=1):
        return cls({k: Fraction(c)})

    def degree(self):
        """Maximal stored exponent, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(term_sum(((1, self.coeffs.items()), (1, other.coeffs.items()))))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(term_sum(((1, self.coeffs.items()), (-1, other.coeffs.items()))))

    def __neg__(self):
        return Poly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(term_sum(
            (c1, ((k1 + k2, c2) for k2, c2 in other.coeffs.items()))
            for k1, c1 in self.coeffs.items()
        ))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = Fraction(c)
        return Poly({k: c * v for k, v in self.coeffs.items()})

    def __call__(self, t):
        t = Fraction(t)
        return sum((c * t**k for k, c in self.coeffs.items()), ZERO)

    def integrate_unit_interval(self):
        """Exact integral over [-1, 0]: the X^k term contributes (-1)^k/(k+1)."""
        total = ZERO
        for k, c in self.coeffs.items():
            total += c * Fraction((-1) ** k, k + 1)
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
                continue
            if c == 1:
                head = ""
            elif c == -1:
                head = "-"
            else:
                head = str(c)
            var = "X" if k == 1 else f"X^{k}"
            parts.append(head + var)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


class LinComb:
    """Finite linear combination over an ordered family of basis keys.

    Keys must be hashable and mutually comparable; iteration is always in
    sorted key order so that printing is deterministic.  Every stored
    coefficient is a nonzero Fraction, which is why +, -, map_keys and
    tensor_pair may wrap their term_sum results with trusted.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
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
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.trusted(term_sum(((1, self.terms.items()), (1, other.terms.items()))))

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.trusted(term_sum(((1, self.terms.items()), (-1, other.terms.items()))))

    def __neg__(self):
        return LinComb({k: -c for k, c in self.terms.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return LinComb({k: c * v for k, v in self.terms.items()})

    def apply(self, f):
        """Linear extension: sum of coeff * f(key), f returning a LinComb."""
        return lin_sum((c, f(k)) for k, c in self.terms.items())

    def map_keys(self, f):
        """Push forward along a key map; colliding images accumulate."""
        return LinComb.trusted(term_sum([(1, ((f(k), c) for k, c in self.terms.items()))]))

    def __repr__(self):
        return f"LinComb({self.terms!r})"


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
