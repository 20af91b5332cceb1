"""B-infinity structures on the span of an alphabet and the induced product.

A structure is presented by its bracket <w, w'>, a linear map from pairs of
nonempty words to letters.  The unit rules are never stored: <1, v> and
<v, 1> are v on single letters and 0 on longer words, and <1, 1> = 0.  The
induced product on T(V) is the double sum over all pairs of block
decompositions, reading each bracket of blocks as one output letter; it is
unital and coassociative by construction, and associativity, commutativity
and triviality are bounded checks.

The product is computed by recursion over the first cut of each factor,
<w[:i], w'[:j]> (w[i:] * w'[j:]), visiting only the cut pairs inside the
bracket's support.  It runs on the word-side kernel: a word is its tuple of
letter indices, a combination is a plain dict from such tuples to int or
Fraction coefficients summed by exactlin.term_sum, and the bracket is read
from `brackets`, the structure's one copy of its table, keyed by index
tuples and built once from the table it was given (a quasi-shuffle's
`x * y = z` is its letter-pair bracket, and letter_product reads it back).
The products of suffix pairs are memoized in a dict that lives
for one induced_product or check_axioms call; no product is kept on the
structure between calls.  What the structure does keep, `letter_maps`, is
gebra.idem's letter-valued varpi and zeta, a combination of letters per
word.  Words and LinCombs appear only at the boundary (words.index_terms
and words.word_comb), which puts the input's coefficients over one common
denominator, so that integral brackets keep every intermediate sum in ints.
check_axioms and is_degree_graded read the index table too.  The public
Word-keyed `bracket` reads it past the unit rules; only the oracles call
it.  The oracles sum with exactlin.lin_sum, so no combination in this
module is accumulated by hand.

Three modes exist: "shuffle" (zero bracket), "quasi_shuffle" (a semigroup
product on the letters, applied to letter pairs only), and "explicit" (a
finite table with a declared word-length bound; evaluation outside the bound
is an error rather than a silent zero).  MODE_NAMES is the one table of
them, for structures, table files and the command line.

Bracket table file format::

    mode: explicit            # or: shuffle | qshuffle
    alphabet: a:1,b:2         # optional; else words.infer_alphabet, as on the command line
    bound: 6                  # explicit mode only, optional
    a , a -> 2*b              # explicit bracket lines, one per pair
    a * b = c                 # qshuffle multiplication lines, one per pair

A bracket line, multiplication line or bound header in a mode that does not
read it is refused.  words.WORD_BOUND bounds the total length of a product
and the budget of check_axioms, AXIOM_CHECK_BOUND the tuples it visits.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from math import comb

from .exactlin import (
    InputError, LinComb, SizeBoundError, as_int, lin_sum, parse_ints, prefixed, reduced, term_sum,
)
from .words import (
    Alphabet,
    Word,
    as_letter_comb,
    check_word_bound,
    concat_expand,
    index_terms,
    infer_alphabet,
    parse_tensor,
    parse_word,
    same_alphabet,
    word_comb,
)

SHUFFLE = "shuffle"
QUASI_SHUFFLE = "quasi_shuffle"
EXPLICIT = "explicit"

# Mode name -> (mode, support): the longest nonempty words the bracket can
# pair to nonzero.  Explicit tables promise nothing (None) and are always
# evaluated, so that a word past the table bound raises instead of reading
# as zero.
MODE_NAMES = {
    "shuffle": (SHUFFLE, 0),
    "qshuffle": (QUASI_SHUFFLE, 1),
    "quasi_shuffle": (QUASI_SHUFFLE, 1),
    "explicit": (EXPLICIT, None),
}


class BInftyStructure:
    """A bracket <-,->: T(V) x T(V) -> V presented by mode and table."""

    __slots__ = ("alphabet", "mode", "bound", "support", "brackets", "letter_maps")

    def __init__(self, alphabet, mode, mult=None, table=None, bound=None):
        try:
            mode, self.support = MODE_NAMES[mode]
        except (KeyError, TypeError):
            raise InputError(f"unknown mode {mode!r}") from None
        self.alphabet = alphabet
        self.mode = mode
        self.bound = None
        # The nonzero brackets of nonempty words, the structure's one copy of
        # its table: keyed by pairs of index tuples, each a tuple of
        # (letter tuple, coefficient).
        self.brackets = {}
        # Letter-valued maps that depend only on the structure, filled by
        # gebra.idem (|w|! varpi(w) and |w|! zeta(w) by index tuple) and
        # dropped with it.
        self.letter_maps = {}
        if mode == QUASI_SHUFFLE:
            if mult is None:
                raise InputError("quasi_shuffle mode needs a multiplication table")
            for a in alphabet.letters:
                for b in alphabet.letters:
                    if (a, b) not in mult:
                        raise InputError(
                            f"multiplication table is not total: missing {a} * {b}"
                        )
            index = alphabet.index
            self.brackets = {
                ((index(a),), (index(b),)): (((index(c),), 1),) for (a, b), c in mult.items()
            }
        elif mode == EXPLICIT:
            top = 1
            for (w, w2), val in (table or {}).items():
                if w.is_empty() or w2.is_empty():
                    raise InputError("bracket tables never store unit-word pairs")
                val = as_letter_comb(
                    val, lambda u: f"bracket value for ({w}, {w2}) is not a letter"
                )
                top = max(top, len(w), len(w2))
                if val:
                    terms = val.terms.items()
                    self.brackets[w.idx, w2.idx] = tuple((u.idx, reduced(c)) for u, c in terms)
            self.bound = top if bound is None else as_int(bound, "table bound")
            if self.bound < top:
                raise InputError("declared bound is smaller than the stored table")

    @classmethod
    def shuffle(cls, alphabet):
        return cls(alphabet, SHUFFLE)

    @classmethod
    def quasi_shuffle(cls, alphabet, mult):
        return cls(alphabet, QUASI_SHUFFLE, mult=mult)

    @classmethod
    def explicit(cls, alphabet, table, bound=None):
        return cls(alphabet, EXPLICIT, table=table, bound=bound)

    def letter_product(self, i, j):
        """The semigroup product of two letter indices, as a letter index."""
        (((k,), _),) = self.brackets[(i,), (j,)]
        return k

    def bracket(self, w, w2):
        """Evaluate the bracket on a pair of words: the unit rules, then the
        kernel's index table (bracket_terms).  Outside shuffle mode a word
        over another alphabet is refused, as index_terms refuses it."""
        if self.mode != SHUFFLE:
            same_alphabet(self.alphabet, w.alphabet)
            same_alphabet(self.alphabet, w2.alphabet)
        e1, e2 = w.is_empty(), w2.is_empty()
        if e1 and e2:
            return LinComb.zero()
        if e1 or e2:
            u = w2 if e1 else w
            return LinComb.single(u) if len(u) == 1 else LinComb.zero()
        terms = self.bracket_terms(w.idx, w2.idx)
        return LinComb({Word._trusted(self.alphabet, u): c for u, c in terms})

    def bracket_terms(self, a, b):
        """The bracket of two nonempty index tuples, as (letter tuple, coefficient) pairs."""
        head = self.brackets.get((a, b))
        if head is not None:
            return head
        if self.bound is not None and max(len(a), len(b)) > self.bound:
            w, w2 = (Word._trusted(self.alphabet, t) for t in (a, b))
            raise InputError(f"bracket evaluated outside the table bound {self.bound}: ({w}, {w2})")
        return ()

    def index_terms(self, x):
        """x as kernel terms (alphabet, terms, d), as words.index_terms gives.

        A structure with a bracket meets only words over its own alphabet,
        since its bracket values are letters of that alphabet.
        """
        alphabet, terms, d = index_terms(x)
        if alphabet is not None and self.mode != SHUFFLE:
            same_alphabet(self.alphabet, alphabet)
        return alphabet, terms, d

    def is_degree_graded(self):
        """True when every stored bracket value preserves total degree."""
        deg = self.alphabet.degrees
        return all(
            deg[u] == sum(deg[i] for i in a + b)
            for (a, b), val in self.brackets.items() for (u,), _ in val
        )


def product_terms(B, a, b, memo):
    """a * b on index tuples by its first cut: the sum of <a[:i], b[:j]> (a[i:] * b[j:]).

    By the unit rules an empty first block leaves (0, 1) and (1, 0), whose
    bracket is the other side's first letter; two nonempty first blocks
    are bracketed only within the support.  The cuts are visited in the
    order of the full double loop over i, then j, which fixes the pair an
    out-of-bound explicit table names in its error.  The result is a dict
    from index tuples to coefficients, memoized in memo and never mutated.
    """
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n, n2 = len(a), len(b)
    parts = []
    if n2:
        parts.append((1, prefixed(b[:1], product_terms(B, a, b[1:], memo))))
    if n:
        parts.append((1, prefixed(a[:1], product_terms(B, a[1:], b, memo))))
    if n and n2:
        support = B.support
        top = n if support is None else min(n, support)
        top2 = n2 if support is None else min(n2, support)
        for i in range(1, top + 1):
            for j in range(1, top2 + 1):
                head = B.bracket_terms(a[:i], b[:j])
                if head:
                    tail = product_terms(B, a[i:], b[j:], memo)
                    parts.extend((c, prefixed(u, tail)) for u, c in head)
    out = term_sum(parts) if parts else {a: 1}  # 1 * 1 = 1
    memo[key] = out
    return out


def induced_product(B, x, y):
    """The product induced by the bracket, extended bilinearly.

    For words it is the sum over pairs of decompositions of both arguments
    into the same number of possibly-empty blocks, each index contributing
    one bracketed letter.  The empty-against-empty index vanishes, so the
    sum is finite; 1 * 1 = 1.  A total length past WORD_BOUND is refused.
    The products of pairs of index tuples are memoized for this call only.
    """
    alphabet, xs, d = B.index_terms(x)
    alphabet2, ys, d2 = B.index_terms(y)
    if alphabet is not None and alphabet2 is not None:
        same_alphabet(alphabet, alphabet2)
    check_word_bound(max(map(len, xs), default=0) + max(map(len, ys), default=0))
    memo = {}
    out = term_sum(
        (c * c2, product_terms(B, w, w2, memo).items())
        for w, c in xs.items()
        for w2, c2 in ys.items()
    )
    return word_comb(alphabet, out, d * d2)


def surjection_product_oracle(B, w, w2):
    """Independent recomputation of the induced product of two words.

    Shuffle and quasi-shuffle modes enumerate interleave-or-merge patterns
    (the monotone surjection picture); explicit mode re-enumerates the block
    decomposition sum directly, with no recursion and no memo.
    """
    if B.mode in (SHUFFLE, QUASI_SHUFFLE):
        return _surjection_words(B, w, w2)
    return _decomposition_sum(B, w, w2)


def _surjection_words(B, w, w2):
    alphabet = w.alphabet
    merge = B.mode == QUASI_SHUFFLE

    def walk(i, j, acc):
        if i == len(w) and j == len(w2):
            yield Word(alphabet, tuple(acc))
            return
        if i < len(w):
            acc.append(w.idx[i])
            yield from walk(i + 1, j, acc)
            acc.pop()
        if j < len(w2):
            acc.append(w2.idx[j])
            yield from walk(i, j + 1, acc)
            acc.pop()
        if merge and i < len(w) and j < len(w2):
            acc.append(B.letter_product(w.idx[i], w2.idx[j]))
            yield from walk(i + 1, j + 1, acc)
            acc.pop()

    return lin_sum((1, {word: 1}) for word in walk(0, 0, []))


def _split_with_empty(w, k):
    """All ways to cut w into k blocks, empty blocks allowed."""
    n = len(w)
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(w[bounds[i]:bounds[i + 1]] for i in range(k))


def _decomposition_sum(B, w, w2):
    if w.is_empty() and w2.is_empty():
        return LinComb.single(w)
    alphabet = w.alphabet
    return lin_sum(
        (1, concat_expand([B.bracket(a, b) for a, b in zip(blocks, blocks2)], alphabet))
        for k in range(1, len(w) + len(w2) + 1)
        for blocks in _split_with_empty(w, k)
        for blocks2 in _split_with_empty(w2, k)
    )


def quasi_shuffle_recursive(B, w, w2):
    """Classical three-term recursion for the (quasi-)shuffle product."""
    if B.mode not in (SHUFFLE, QUASI_SHUFFLE):
        raise InputError("the three-term recursion needs shuffle or quasi_shuffle mode")
    alphabet = w.alphabet

    @cache
    def rec(u, v):
        if u.is_empty():
            return LinComb.single(v)
        if v.is_empty():
            return LinComb.single(u)
        a, u_rest = u[:1], u[1:]
        b, v_rest = v[:1], v[1:]
        parts = [(a, rec(u_rest, v)), (b, rec(u, v_rest))]
        if B.mode == QUASI_SHUFFLE:
            ab = alphabet.letter(B.letter_product(u.idx[0], v.idx[0]))
            parts.append((ab, rec(u_rest, v_rest)))
        return lin_sum((1, {head * t: c for t, c in x.terms.items()}) for head, x in parts)

    return rec(w, w2)


# check_axioms visits every nonempty word, pair and triple of words of total
# length within the budget, and refuses a budget with more of them than
# this.  The worst case inside the bound known is two letters at budget 7
# (4346 tuples) with every bracket of total length up to 7 nonzero and no two
# denominators sharing a factor: 1.1-1.8 s as a process on a 2-vCPU VM, and
# 0.2-0.3 s with integral brackets.  Three letters at budget 6 (15033 tuples)
# took 0.13 s on a quasi-shuffle table, 0.5 s on a dense integral one and
# 7 s on a dense one with such denominators, in process.
AXIOM_CHECK_BOUND = 5000


def axiom_check_size(letters, length_budget):
    """How many words, pairs and triples of nonempty words lie within the
    budget: the weight check_axioms is bounded by, which visits the pairs
    and triples.

    Each tuple of total length L is a word of length L over the letters
    split into at most three nonempty parts.
    """
    return sum(
        letters**L * (comb(L - 1, 0) + comb(L - 1, 1) + comb(L - 1, 2))
        for L in range(1, length_budget + 1)
    )


def check_axioms(B, length_budget):
    """Bounded validity report for the B-infinity axioms.

    unit: the bracket against the unit word acts as the projection onto V,
    which always holds, since `bracket` applies the unit rules before any
    table and tables never store unit-word pairs;
    assoc: <w, w' * w''> = <w * w', w''> on all nonempty triples of total
    length within the budget; comm: the bracket is symmetric; trivial: the
    bracket vanishes on all pairs of nonempty words.  The budget is refused
    past WORD_BOUND and past AXIOM_CHECK_BOUND tuples (axiom_check_size).

    It runs on index tuples, with one product memo, and brackets each pair
    once in length-lexicographic order, so a table read past its bound
    names the first such pair.
    """
    length_budget = as_int(length_budget, "length budget")
    if length_budget < 1:
        raise InputError("length budget must be >= 1")
    check_word_bound(length_budget)
    size = axiom_check_size(len(B.alphabet.letters), length_budget)
    if size > AXIOM_CHECK_BOUND:
        raise SizeBoundError(
            f"size bound: the axiom check would visit {size} word tuples,"
            f" more than {AXIOM_CHECK_BOUND}"
        )
    bracket = B.bracket_terms
    words = [w.idx for w in B.alphabet.words(length_budget - 1, minlen=1)]
    values = {
        (a, b): dict(bracket(a, b))
        for a in words for b in words if len(a) + len(b) <= length_budget
    }
    comm = all(val == values[b, a] for (a, b), val in values.items())
    trivial = not any(values.values())
    # Every pair bracketed below was bracketed above, so nothing here raises.
    # A list, so that every triple is evaluated, as the bound's budget assumes.
    memo = {}
    assoc = all([
        term_sum((k, bracket(u, c)) for u, k in product_terms(B, a, b, memo).items())
        == term_sum((k, bracket(a, u)) for u, k in product_terms(B, b, c, memo).items())
        for a, b in values for c in words if len(a) + len(b) + len(c) <= length_budget
    ])
    return {"unit": True, "assoc": assoc, "comm": comm, "trivial": trivial}


def _give(table, pair, value, line):
    """table[pair] = value, refusing a second table line for the same pair."""
    if pair in table:
        raise InputError(f"table line {line!r} gives the pair ({pair[0]}, {pair[1]}) a second time")
    table[pair] = value


def parse_bracket_file(text, alphabet=None):
    """Parse the bracket table file format into a structure.

    Without an "alphabet:" header (or an alphabet argument, which wins),
    the letters are those words.infer_alphabet finds in the body.
    """
    mode = None
    bound = None
    bound_lines = []
    mult_lines = []
    bracket_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("mode:"):
            tag = line.split(":", 1)[1].strip()
            if tag not in MODE_NAMES:
                raise InputError(f"unknown mode {tag!r}")
            mode = MODE_NAMES[tag][0]
        elif low.startswith("alphabet:"):
            if alphabet is None:
                alphabet = Alphabet(line.split(":", 1)[1])
        elif low.startswith("bound:"):
            try:
                bound = parse_ints([line.split(":", 1)[1].strip()])[0]
            except ValueError:
                raise InputError(f"bad bound in {line!r}") from None
            bound_lines.append(line)
        elif "=" in line and "->" not in line:
            mult_lines.append(line)
        elif "->" in line:
            bracket_lines.append(line)
        else:
            raise InputError(f"unparseable table line {line!r}")
    if mode is None:
        raise InputError("missing \"mode:\" header")
    for lines, reader in ((mult_lines, QUASI_SHUFFLE), (bracket_lines + bound_lines, EXPLICIT)):
        if lines and mode != reader:
            raise InputError(f"table line {lines[0]!r} is not read in {mode} mode")
    if alphabet is None:
        # the words of each "a * b = c" line and each "u , v -> value" line
        alphabet = infer_alphabet(
            [t for line in mult_lines for t in line.replace("=", "*").split("*")]
            + [t for line in bracket_lines for t in line.replace("->", ",").split(",")]
        )
    if mode == QUASI_SHUFFLE:
        mult = {}
        for line in mult_lines:
            lhs, _, rhs = line.partition("=")
            a, star, b = lhs.partition("*")
            if not star:
                raise InputError(f"bad multiplication line {line!r}")
            _give(mult, (a.strip(), b.strip()), rhs.strip(), line)
        return BInftyStructure.quasi_shuffle(alphabet, mult)
    if mode == EXPLICIT:
        table = {}
        for line in bracket_lines:
            lhs, _, rhs = line.partition("->")
            parts = lhs.split(",")
            if len(parts) != 2:
                raise InputError(f"bad bracket line {line!r}")
            w = parse_word(parts[0], alphabet)
            w2 = parse_word(parts[1], alphabet)
            val = rhs.strip()
            value = LinComb.zero() if val == "0" else parse_tensor(val, alphabet)
            _give(table, (w, w2), value, line)
        return BInftyStructure.explicit(alphabet, table, bound=bound)
    return BInftyStructure.shuffle(alphabet)
