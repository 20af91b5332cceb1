"""Words over a degree-carrying alphabet and the tensor coalgebra on them.

A word v1...vn is a basis tensor of T(V) and the coproduct is
deconcatenation.  This module provides the iterated reduced coproducts, the
coradical filtration degree, the cofree universal lift, and the coalgebra
endomorphism attached to a projection table together with its inverse.

The lifts run on the word-side kernel that binfty and idem share: a word is
its tuple of letter indices and a combination a plain dict from such tuples
to int or Fraction coefficients, summed by exactlin.term_sum.  index_terms
and word_comb convert at the boundary.

Text grammar: letters are identifiers joined by ".", the empty word is "1",
an alphabet is declared as "a:1,b:2" (name:degree), and a linear combination
reads like "3/2*a.b + -1*c".  Undeclared, the alphabet is what
infer_alphabet reads off the texts, for the command line and table files.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import combinations, product
from math import comb, factorial, lcm

from .exactlin import (
    ONE,
    Fraction,
    InputError,
    LinComb,
    SizeBoundError,
    as_int,
    lin_sum,
    parse_ints,
    parse_scalar,
    parse_terms,
    reduced,
    term_sum,
)

IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Longest word (for products: total length of both factors) that the
# word-side computations accept, checked by check_word_bound as index_terms
# reads an argument, and by reduced_coproduct_iter, which works on Words.
# At the bound, the slowest case measured is the Eulerian idempotent of
# x1...x8 under the saturating quasi-shuffle product (tests/test_bounds.py).
WORD_BOUND = 8


class Alphabet:
    """Ordered list of distinct letters, each carrying a degree >= 1."""

    __slots__ = ("letters", "degrees", "_index")

    def __init__(self, spec):
        if isinstance(spec, str):
            chunks = [chunk.partition(":") for chunk in spec.split(",") if chunk.strip()]
            try:
                degrees = parse_ints([deg.strip() if colon else "1" for _, colon, deg in chunks])
            except ValueError:
                raise InputError(f"bad degree in alphabet {spec!r}") from None
            entries = [(name.strip(), deg) for (name, _, _), deg in zip(chunks, degrees)]
        else:
            entries = [(item, 1) if isinstance(item, str) else item for item in spec]
            entries = [(name, as_int(deg, "letter degree")) for name, deg in entries]
        for name, deg in entries:
            if not IDENT.match(name):
                raise InputError(f"bad letter name {name!r}")
            if deg < 1:
                raise InputError(f"degree of letter {name!r} must be >= 1")
        if not entries:
            raise InputError("empty alphabet")
        self.letters, self.degrees = map(tuple, zip(*entries))
        if len(set(self.letters)) != len(self.letters):
            raise InputError("duplicate letter names")
        self._index = {name: i for i, name in enumerate(self.letters)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown letter {name!r}") from None

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.letters == other.letters and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.letters, self.degrees))

    def empty_word(self):
        return Word(self, ())

    def letter(self, i):
        """The length-1 word on the i-th letter."""
        return Word(self, (i,))

    def word(self, text):
        return parse_word(text, self)

    def words(self, maxlen, minlen=0):
        """All words of length minlen..maxlen in length-lexicographic order."""
        for n in range(minlen, maxlen + 1):
            for idx in product(range(len(self.letters)), repeat=n):
                yield Word(self, idx)

    def __str__(self):
        return ",".join(f"{l}:{d}" for l, d in zip(self.letters, self.degrees))

    def __repr__(self):
        return f"Alphabet({str(self)!r})"


class Word:
    """A finite sequence of alphabet letters; the empty word is the unit."""

    __slots__ = ("alphabet", "idx")

    def __init__(self, alphabet, idx):
        idx = tuple(idx)
        for i in idx:
            if not 0 <= i < len(alphabet.letters):
                raise InputError(f"letter index {i} out of range")
        self.alphabet = alphabet
        self.idx = idx

    @classmethod
    def _trusted(cls, alphabet, idx):
        """A word from an index tuple already known to be valid."""
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.idx = idx
        return w

    def __len__(self):
        return len(self.idx)

    @property
    def degree(self):
        return sum(self.alphabet.degrees[i] for i in self.idx)

    @property
    def names(self):
        return tuple(self.alphabet.letters[i] for i in self.idx)

    def is_empty(self):
        return not self.idx

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.idx == other.idx and self.alphabet == other.alphabet

    def __hash__(self):
        return hash(self.idx)

    def __lt__(self, other):
        # Length-lexicographic by letter index: deterministic term order.
        return (len(self.idx), self.idx) < (len(other.idx), other.idx)

    def __le__(self, other):
        return self == other or self < other

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.idx + other.idx)

    def __getitem__(self, sl):
        if not isinstance(sl, slice):
            raise TypeError("words only support slicing")
        return Word._trusted(self.alphabet, self.idx[sl])

    def __str__(self):
        if not self.idx:
            return "1"
        return ".".join(map(self.alphabet.letters.__getitem__, self.idx))

    def __repr__(self):
        return f"Word({str(self)!r})"


def parse_word(text, alphabet):
    text = text.strip()
    if text == "1":
        return alphabet.empty_word()
    if not text:
        raise InputError("empty word text (write the unit word as \"1\")")
    idx = tuple(alphabet.index(part.strip()) for part in text.split("."))
    return Word(alphabet, idx)


def parse_tensor(text, alphabet):
    """Parse "3/2*a.b + -1*c" into a linear combination of words."""

    def bare(term):
        # A bare word, or a bare scalar standing on the unit word; a term
        # made of identifiers alone can only be a word.
        try:
            return parse_word(term, alphabet), ONE
        except InputError:
            if all(IDENT.match(part.strip()) for part in term.split(".")):
                raise
            return alphabet.empty_word(), parse_scalar(term)

    terms = parse_terms(text, lambda word_text: parse_word(word_text, alphabet), bare)
    return LinComb.trusted(term_sum([(1, terms)]))


def infer_alphabet(texts):
    """The letters that texts name, each of degree 1, in sorted order.

    A text is a word or a term list as parse_tensor reads it: the word of a
    term is what follows its last "*", and a part that is no identifier
    (the unit word "1", a bare scalar) names no letter.
    """
    names = {part for text in texts for term in text.split("+")
             for part in map(str.strip, term.rpartition("*")[2].split(".")) if IDENT.match(part)}
    if not names:
        raise InputError("cannot infer an alphabet: the input names no letter")
    return Alphabet(sorted(names))


def check_word_bound(length):
    """Refuse, before any work, a word-side computation past WORD_BOUND."""
    if length > WORD_BOUND:
        raise SizeBoundError(f"size bound: word-side computations stop at length {WORD_BOUND}")


def as_tensor(x):
    if isinstance(x, Word):
        return LinComb.single(x)
    if isinstance(x, LinComb):
        return x
    raise InputError(f"expected a word or a combination of words, got {x!r}")


def alphabet_of(x):
    for w in x.terms:
        return w.alphabet
    raise InputError("cannot infer the alphabet of the zero element")


def _cuts(n, k):
    """Cut position tuples splitting [1..n] into k nonempty contiguous blocks."""
    return combinations(range(1, n), k - 1)


def compositions(n):
    """All compositions of n, by length then lexicographically."""
    n = as_int(n, "composition size")
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for cuts in _cuts(n, k):
            bounds = (0,) + cuts + (n,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _blocks(w, cuts):
    bounds = (0,) + cuts + (len(w),)
    return tuple(w[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1))


def block_decompositions(w, k):
    """All ways to write w as a concatenation of k nonempty blocks."""
    k = as_int(k, "block count")
    n = len(w)
    if k < 1 or k > n:
        return
    for cuts in _cuts(n, k):
        yield _blocks(w, cuts)


def deconcat(w):
    """Deconcatenation coproduct of a single word, empty blocks included."""
    return LinComb({(w[:i], w[i:]): ONE for i in range(len(w) + 1)})


def _check_reduced(x):
    for w in x.terms:
        if w.is_empty():
            raise InputError("not augmentation-reduced: unit word present")


def reduced_coproduct_iter(x, k):
    """Iterated reduced coproduct: split each word into k nonempty blocks.

    Returns a combination keyed by k-tuples of words; it vanishes on words of
    length < k.  k = 1 is allowed and is the identity (keys are 1-tuples).
    """
    x = as_tensor(x)
    k = as_int(k, "block count")
    if k < 1:
        raise InputError("the iterated coproduct needs k >= 1")
    _check_reduced(x)
    check_word_bound(max(map(len, x.terms), default=0))
    return LinComb.trusted(term_sum(
        (1, ((blocks, c) for blocks in block_decompositions(w, k))) for w, c in x.terms.items()
    ))


def coradical_degree(x):
    """Least n with the (n+1)-fold reduced coproduct vanishing.

    On the tensor coalgebra this is the maximal word length in the support.
    """
    x = as_tensor(x)
    if not x:
        raise InputError("the zero element has no coradical degree")
    _check_reduced(x)
    return max(len(w) for w in x.terms)


def as_letter_comb(val, complaint):
    """A table value (a Word, a dict or a LinComb) as a LinComb of letters.

    A term that is not a single letter u raises InputError(complaint(u)).
    """
    if isinstance(val, Word):
        val = LinComb.single(val)
    elif not isinstance(val, LinComb):
        val = LinComb(val)
    for u in val.terms:
        if len(u) != 1:
            raise InputError(complaint(u))
    return val


class LetterMap:
    """Finite presentation of a linear map from words to letters.

    The table sends words to combinations of single letters; a word missing
    from the table is an error ("partial map").  With identity_on_letters
    set, absent single letters fall back to themselves, the usual convention
    for projections restricting to the identity on V.
    """

    __slots__ = ("alphabet", "table", "identity_on_letters")

    def __init__(self, alphabet, table=None, identity_on_letters=False):
        self.alphabet = alphabet
        self.identity_on_letters = identity_on_letters
        self.table = {
            w: as_letter_comb(
                val, lambda u: f"letter map value for {w} contains the non-letter {u}"
            )
            for w, val in (table or {}).items()
        }

    def __call__(self, w):
        try:
            return self.table[w]
        except KeyError:
            pass
        if self.identity_on_letters and len(w) == 1:
            return LinComb.single(w)
        raise InputError(f"partial map: no value for {w}")


def _as_callable(phi):
    if isinstance(phi, LetterMap):
        return phi
    if isinstance(phi, dict):
        for w in phi:
            return LetterMap(w.alphabet, phi)
        raise InputError("cannot infer the alphabet of an empty map table")
    if callable(phi):
        return phi
    raise InputError(f"expected a letter map, got {phi!r}")


def concat_expand(factors, alphabet):
    """Distribute a list of letter combinations into one combination of words."""
    acc = LinComb.single(alphabet.empty_word())
    for f in factors:
        acc = lin_sum((d, {u * v: c for u, c in acc.terms.items()}) for v, d in f.terms.items())
    return acc


def same_alphabet(alphabet, other):
    """Refuse to join words over two different alphabets."""
    if other is not alphabet and other != alphabet:
        raise InputError("cannot concatenate words over different alphabets")


def index_terms(x):
    """A combination of words as (alphabet, terms, d) with x = terms / d.

    terms maps the index tuples of the words to ints, d is the least common
    denominator of the coefficients, and alphabet is the one alphabet the
    words share (None for zero).  index_terms and word_comb are the boundary
    of the word-side kernel, which works on index tuples with int-or-Fraction
    coefficients and meets a Fraction only where a value is not integral.
    A word longer than WORD_BOUND is refused here, before the kernel starts.
    """
    x = as_tensor(x)
    d = lcm(*(c.denominator for c in x.terms.values()))
    alphabet = next((w.alphabet for w in x.terms), None)
    terms = {}
    for w, c in x.terms.items():
        same_alphabet(alphabet, w.alphabet)
        terms[w.idx] = c.numerator * (d // c.denominator)
    check_word_bound(max(map(len, terms), default=0))
    return alphabet, terms, d


def word_comb(alphabet, terms, d):
    """The combination of words over alphabet whose coefficients are terms / d.

    The words are stored in their printed order, length first, then letter
    indices, sorted on the index tuples, so that LinComb.items finds them
    already sorted; each distinct coefficient becomes one Fraction.
    """
    word = Word._trusted
    fractions = {}
    out = {}
    for t in sorted(sorted(terms), key=len):
        v = terms[t]
        c = fractions.get(v)
        if c is None:
            c = fractions[v] = Fraction(v, d)
        out[word(alphabet, t)] = c
    return LinComb.trusted(out)


def prefixed(u, x):
    """The terms of x, keyed by index tuples, with u concatenated in front."""
    return zip(map(u.__add__, x), x.values())


def memo_lift(phi):
    """The lift of phi on index tuples, cached for as long as it is kept.

    lift(t) is the sum, over the decompositions of t into nonempty blocks,
    of phi(block 1)...phi(block k) concatenated; the unit word lifts to
    itself.  Values are dicts from index tuples to coefficients, scaled by
    the factorial of the argument's length: phi(t) returns |t|! phi(t) and
    lift(t) returns |t|! lift(t).  The cut recursion
    n! lift(t) = sum over j of C(n, j) (j! phi(t[:j])) ((n - j)! lift(t[j:]))
    calls phi once per subword instead of once per block of each of 2^(n-1)
    decompositions, shares the lifts of common suffixes, and stays in ints
    wherever the scaled phi values are ints.
    """

    @cache
    def lift(t):
        n = len(t)
        if not n:
            return {t: 1}
        heads = [(j, phi(t[:j])) for j in range(1, n + 1)]
        return term_sum(
            (comb(n, j) * c, prefixed(u, rest))
            for j, head in heads
            for rest in (lift(t[j:]),)
            for u, c in head.items()
        )

    return lift


def lift_comb(lift, alphabet, terms, d):
    """A lift made by memo_lift, or any map scaled as its phi is, applied
    to terms / d, as words over alphabet."""
    top = factorial(max(map(len, terms), default=0))
    out = term_sum((c * (top // factorial(len(t))), lift(t).items()) for t, c in terms.items())
    return word_comb(alphabet, out, d * top)


def apply_scaled(f, x):
    """The sum of x_p f(p) / |p|! over the terms of x, for f scaled as phi is.

    It is summed in ints as the sum of x_p (m! / |p|!) f(p), m the longest
    |p|, and divided by m! once per term.
    """
    top = factorial(max(map(len, x), default=0))
    s = term_sum((c * (top // factorial(len(p))), f(p).items()) for p, c in x.items())
    return {u: reduced(Fraction(v, top)) for u, v in s.items()}


def _index_map(phi, alphabet):
    """phi on index tuples over alphabet, scaled as memo_lift expects."""

    def scaled(t):
        f = factorial(len(t))
        out = {}
        for u, c in phi(Word._trusted(alphabet, t)).terms.items():
            same_alphabet(alphabet, u.alphabet)
            out[u.idx] = reduced(f * c)
        return out

    return scaled


def cofree_lift(phi, d):
    """Universal lift of phi through the cofree tensor coalgebra.

    Sends d to eps(d)*1 + sum over n >= 1 of phi tensored n times applied to
    the n-fold reduced coproduct of the augmentation-reduced part of d,
    computed word by word with memo_lift.
    """
    alphabet, terms, den = index_terms(d)
    return lift_comb(memo_lift(_index_map(_as_callable(phi), alphabet)), alphabet, terms, den)


def _check_fixes_letters(phi, alphabet):
    for i in range(len(alphabet)):
        v = alphabet.letter(i)
        if phi(v) != LinComb.single(v):
            raise InputError(f"the projection must fix the letter {v}")


def structure_endo(pi, x):
    """Coalgebra endomorphism induced by a projection fixing the letters.

    A word v1...vn is sent to the sum over all decompositions into k
    nonempty blocks of pi(block 1)...pi(block k); the k = n term makes it
    the identity plus lower-length corrections.
    """
    pi = _as_callable(pi)
    x = as_tensor(x)
    if not x:
        return x
    _check_fixes_letters(pi, alphabet_of(x))
    return cofree_lift(pi, x)


def inverse_structure_endo(pi, x):
    """Inverse of structure_endo(pi, -), computed by length recursion.

    The companion projection mu is defined by mu(v) = v on letters and, for
    longer words, by subtracting the images of all shorter block patterns;
    the inverse endomorphism is then the lift of mu.
    """
    pi = _as_callable(pi)
    x = as_tensor(x)
    if not x:
        return x
    alphabet, terms, d = index_terms(x)
    _check_fixes_letters(pi, alphabet)
    lift = memo_lift(_index_map(pi, alphabet))

    @cache
    def mu(t):
        n = len(t)
        if n == 0:
            raise InputError("partial map: no value for the unit word")
        if n == 1:
            return {t: 1}
        # minus every pattern but the n-letter one, which pi sends back to t
        return apply_scaled(mu, term_sum(((-1, lift(t).items()), (1, ((t, factorial(n)),)))))

    return lift_comb(memo_lift(mu), alphabet, terms, d)
