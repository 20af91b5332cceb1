"""Finite topologies on labeled points, up to homeomorphism.

A finite topology is stored as its specialization quasi-order: rows of
bitmasks, bit j of rows[i] meaning i <= j.  Open sets are the up-closed
subsets.  An isomorphism class is keyed by the lex-least relation matrix
over all relabelings, found by a refinement-guided search that never lists
the n! relabelings (small n only); the classes form the basis of a double
bialgebra:

  * m        disjoint union (commutative, unit the empty topology),
  * Delta    splitting along open sets,
  * down     the stacking product putting one order entirely below another,
  * delta    contraction-restriction over the admissible partitions E_c,
             enumerated from connected blocks on bitmasks,

with the projector pi onto the primitives of (m, Delta), the bracket
pi((x1 down ... ) (y1 down ...)) on them, the polynomial invariant Upsilon,
its integral lambda over [-1, 0], and the Eulerian idempotent
e = (lambda (x) Id) o delta.

Every operation depends only on the isoclass of its input, so each one is
computed once per class: both coproducts, the antipode, pi, e, pi o e,
Upsilon, lambda and the rendered keys are `functools.cache`d on the
QuasiOrderClass, which hashes (once) and compares by its key, and a class
gets the cached value itself back (`_linear`), with no arithmetic.  Each
route reads a cached coproduct: the antipode (so pi) and Upsilon (so
lambda) are recursions over the splits of Delta, and e is read off delta.
Canonical forms are memoized on the labeled input as well, in the one dict
`_CANON_MEMO`.  The basis in degree n, `all_isoclasses(n)`, is grown by
one-point extension from degree n - 1 and cached per n.  Reads are
concurrency-safe and insertions idempotent, so racing threads can only
repeat work, never corrupt a result.  Memoized results are shared objects:
nothing may mutate them.

Each size bound is checked by one function before anything is allocated:
CANON_BOUND by _check_canon_bound, in every constructor and parser and in
open_mask_list, DELTA_BOUND and EULER_BOUND by _check_delta_bound and
_check_euler_bound, ISO_BOUND by all_isoclasses.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product as _product
from math import comb

from .exactlin import (
    ONE,
    Fraction,
    InputError,
    LinComb,
    Poly,
    SizeBoundError,
    ZERO,
    as_int,
    lin_sum,
    parse_ints,
    term_sum,
)
from .words import compositions

CANON_BOUND = 8
DELTA_BOUND = 7
EULER_BOUND = 6
ISO_BOUND = 6


def _vertex_count(n):
    n = as_int(n, "vertex count")
    if n < 0:
        raise InputError("negative vertex count")
    return n


def _transitive_closure(rows):
    """Close reflexive relation rows transitively, in place; return them.

    A vertex k below no other vertex (rows[k] == 1 << k) adds nothing to the
    rows of the vertices below it, so its pass is skipped.
    """
    n = len(rows)
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        if rk == bit:
            continue
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


class QuasiOrder:
    """A reflexive transitive relation on {0..n-1}, bit j of rows[i] = (i <= j).

    The constructor closes the given relation reflexively and transitively,
    so any generating set of pairs is acceptable input.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, rows=None):
        n = _vertex_count(n)
        self.n = n
        base = [1 << i for i in range(n)]
        if rows is not None:
            rows = list(rows)
            if len(rows) != n:
                raise InputError(f"expected {n} rows, got {len(rows)}")
            full = (1 << n) - 1
            for i, r in enumerate(rows):
                r = as_int(r, "relation row")
                if r & ~full:
                    raise InputError("relation bits out of vertex range")
                base[i] |= r
        self.rows = _transitive_closure(base)

    @classmethod
    def closed(cls, n, rows):
        """Wrap rows that are already reflexive and transitive: no checks,
        no closure.  For relations derived from a QuasiOrder by restriction,
        relabeling, stacking or contraction, and for rows that
        _transitive_closure has closed."""
        q = cls.__new__(cls)
        q.n = n
        q.rows = rows
        return q

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def leq(self, i, j):
        return bool((self.rows[i] >> j) & 1)

    def classes(self):
        """Equivalence classes (mutually comparable vertices), sorted by minimum."""
        seen = 0
        out = []
        for i in range(self.n):
            if (seen >> i) & 1:
                continue
            members = tuple(
                j for j in range(self.n) if self.leq(i, j) and self.leq(j, i)
            )
            for j in members:
                seen |= 1 << j
            out.append(members)
        return out

    def is_equivalence(self):
        """True when the relation is symmetric, i.e. the topology is discrete."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ((self.rows[i] >> j) & 1) != ((self.rows[j] >> i) & 1):
                    return False
        return True

    def open_mask_list(self):
        """All up-closed subsets as bitmasks, ascending."""
        _check_canon_bound(self.n)
        out = []
        for O in range(1 << self.n):
            up = 0
            m = O
            while m:
                i = (m & -m).bit_length() - 1
                up |= self.rows[i]
                m &= m - 1
            if up == O:
                out.append(O)
        return out

    def restrict_mask(self, mask):
        """The induced quasi-order on the vertices of mask, reindexed in order."""
        pos = [i for i in range(self.n) if (mask >> i) & 1]
        rows = []
        for i in pos:
            r = 0
            for t, j in enumerate(pos):
                if (self.rows[i] >> j) & 1:
                    r |= 1 << t
            rows.append(r)
        return QuasiOrder.closed(len(pos), rows)

    def restrict_blocks(self, p):
        """Keep only relations inside the blocks of p; vertex set unchanged."""
        if p.n != self.n:
            raise InputError("partition size mismatch")
        masks = p.masks()
        rows = [0] * self.n
        for b in masks:
            m = b
            while m:
                i = (m & -m).bit_length() - 1
                rows[i] = self.rows[i] & b
                m &= m - 1
        return QuasiOrder(self.n, rows)

    def quotient(self, p):
        """Close the relation together with the equivalence of p; vertex set unchanged."""
        if p.n != self.n:
            raise InputError("partition size mismatch")
        rows = list(self.rows)
        for b in p.masks():
            m = b
            while m:
                i = (m & -m).bit_length() - 1
                rows[i] |= b
                m &= m - 1
        return QuasiOrder(self.n, rows)

    def disjoint_union(self, other):
        rows = list(self.rows) + [r << self.n for r in other.rows]
        return QuasiOrder.closed(self.n + other.n, rows)

    def down(self, other):
        """Everything of self below everything of other."""
        high = ((1 << other.n) - 1) << self.n
        rows = [r | high for r in self.rows] + [r << self.n for r in other.rows]
        return QuasiOrder.closed(self.n + other.n, rows)

    def to_text(self):
        """The input grammar form: vertex count, then generating pairs."""
        rel = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                ij = (self.rows[i] >> j) & 1
                ji = (self.rows[j] >> i) & 1
                if ij and ji:
                    rel.append(f"{i + 1}~{j + 1}")
                elif ij:
                    rel.append(f"{i + 1}<{j + 1}")
                elif ji:
                    rel.append(f"{j + 1}<{i + 1}")
        if not rel:
            return str(self.n)
        return f"{self.n}; " + ", ".join(rel)

    def __eq__(self, other):
        if not isinstance(other, QuasiOrder):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"QuasiOrder({self.n}, {self.rows!r})"


def _check_canon_bound(n):
    """Refuse, before anything is allocated, more vertices than a canonical
    form takes; every class, and so every topology operation, needs one."""
    if n > CANON_BOUND:
        raise SizeBoundError(f"size bound: canonical forms stop at n = {CANON_BOUND}")


def parse_topology(text):
    """Parse "n; 1<2, 2~3" (reflexive-transitive closure of the generators)."""
    text = text.strip()
    if not text:
        raise InputError("empty topology text")
    head, sep, tail = text.partition(";")
    ints = [head.strip()]  # the vertex count, then i, j for each i<j; i~j is i<j and j<i
    for part in tail.split(",") if sep else ():
        part = part.strip()
        if "<" in part:
            a, _, b = part.partition("<")
            ints += a.strip(), b.strip()
        elif "~" in part:
            a, _, b = part.partition("~")
            a, b = a.strip(), b.strip()
            ints += a, b, b, a
        elif part:
            raise InputError(f"bad relation {part!r}: expected i<j or i~j")
    try:
        ints = iter(parse_ints(ints))
    except ValueError:
        raise InputError(f"bad vertex count or relation in {text!r}") from None
    n = _vertex_count(next(ints))
    _check_canon_bound(n)
    rows = [1 << i for i in range(n)]
    for i, j in zip(ints, ints):
        if not (0 < i <= n and 0 < j <= n):
            raise InputError(f"relation between {i} and {j} mentions a vertex outside 1..{n}")
        if i == j:
            raise InputError(f"relation relates vertex {i} to itself")
        rows[i - 1] |= 1 << (j - 1)
    return QuasiOrder.closed(n, _transitive_closure(rows))


_CANON_MEMO = {}


class QuasiOrderClass:
    """A topology up to homeomorphism: the lex-least relation matrix.

    Over all relabelings the matrix is flattened row-major and the least is
    kept (`_lex_min_rows`); two quasi-orders canonicalize equal iff they are
    isomorphic.  Labeled inputs already seen are answered from a memo that
    keeps the key's hash too.
    """

    __slots__ = ("q", "key", "_hash")

    def __init__(self, q):
        _check_canon_bound(q.n)
        memo_key = (q.n, tuple(q.rows))
        hit = _CANON_MEMO.get(memo_key)
        if hit is not None:
            self.q, self.key, self._hash = hit
            return
        n = q.n
        best = _lex_min_rows(q.rows, n)
        rows = [sum(1 << j for j in range(n) if (val >> (n - 1 - j)) & 1) for val in best]
        key = (n, best)
        entry = (QuasiOrder.closed(n, rows), key, hash(key))
        self.q, self.key, self._hash = entry
        _CANON_MEMO[memo_key] = _CANON_MEMO[(n, tuple(rows))] = entry

    @property
    def n(self):
        return self.q.n

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuasiOrderClass):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __str__(self):
        return self.q.to_text()

    def __repr__(self):
        return f"QuasiOrderClass({self.q.to_text()!r})"


def _columns(rows, n):
    """cols[j] has bit i set iff bit j of rows[i] is set."""
    cols = [0] * n
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


def _lex_min_rows(rows, n):
    """The lex-least matrix over all relabelings, as n row integers whose
    bits read left to right (position 0 most significant).

    A search over ordered partitions of the vertices, the cells filling
    consecutive positions (McKay-Piperno individualization-refinement, cut
    down to this one ordering).  Every cell is all successors or all
    non-successors of each placed vertex, so placed rows are fixed.  The
    next position takes a vertex of its cell; that vertex's row is least
    with every unplaced cell arranged non-successors first, so each
    candidate's row is known exactly.  Only the candidates reaching the
    least row are kept, and each splits every cell into (non-successors,
    successors); branches reaching the same ordered partition are merged.
    A lex-least relabeling can always be rearranged inside cells to follow
    a kept branch, so the minimum is never pruned.  A
    candidate is skipped when its transposition with one already tried is
    an automorphism: that transposition fixes the placed vertices and maps
    one branch onto the other.
    """
    cols = _columns(rows, n)
    best = []
    level = [((1 << n) - 1,)]
    for i in range(n):
        least = None
        kept = {}
        for cells in level:
            cell = cells[i]
            tried = []
            m = cell
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                succ = rows[v]
                if any(_is_twin(rows, cols, u, v) for u in tried):
                    continue
                tried.append(v)
                val = 0
                split = []
                for c in cells[:i] + (low, cell ^ low) + cells[i + 1:]:
                    below, above = c & ~succ, c & succ
                    if below:
                        split.append(below)
                        val <<= below.bit_count()
                    if above:
                        split.append(above)
                        k = above.bit_count()
                        val = (val << k) | ((1 << k) - 1)
                if least is None or val < least:
                    least = val
                    kept = {}
                if val == least:
                    kept[tuple(split)] = None
        best.append(least)
        level = list(kept)
    return tuple(best)


def _is_twin(rows, cols, u, v):
    """True when swapping u and v is an automorphism."""
    off = ~((1 << u) | (1 << v))
    return (
        rows[u] & off == rows[v] & off
        and cols[u] & off == cols[v] & off
        and (rows[u] >> v) & 1 == (rows[v] >> u) & 1
    )


def canonicalize(q):
    if isinstance(q, QuasiOrderClass):
        return q
    return QuasiOrderClass(q)


def as_class(x):
    if isinstance(x, QuasiOrderClass):
        return x
    if isinstance(x, QuasiOrder):
        return QuasiOrderClass(x)
    if isinstance(x, str):
        return QuasiOrderClass(parse_topology(x))
    raise InputError(f"cannot interpret {x!r} as a topology")


def as_topo_elem(x):
    """Normalize to a linear combination of isoclasses."""
    if isinstance(x, LinComb):
        return x
    return LinComb.single(as_class(x))


def _linear(x, route, check=None, total=lin_sum):
    """route, a map on classes, extended linearly to x: a class, a text or
    QuasiOrder naming one, or a combination of classes, whose point counts
    check sees first.  One class with coefficient 1 gets route's value
    itself, shared when route is cached; else total sums (coefficient,
    value) pairs."""
    terms = x.terms if isinstance(x, LinComb) else {as_class(x): ONE}
    if check is not None:
        for tc in terms:
            check(tc.n)
    if len(terms) == 1:
        ((tc, c),) = terms.items()
        if c == 1:
            return route(tc)
    return total((c, route(tc)) for tc, c in terms.items())


def unit_class():
    return QuasiOrderClass(QuasiOrder(0))


def discrete(n):
    n = _vertex_count(n)
    _check_canon_bound(n)
    return QuasiOrderClass(QuasiOrder(n))


def ladder(n):
    """The chain on n vertices."""
    n = _vertex_count(n)
    if n < 1:
        raise InputError("a ladder has at least one vertex")
    _check_canon_bound(n)
    rows = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    return QuasiOrderClass(QuasiOrder(n, rows))


def corolla(n):
    """One minimal vertex below n-1 pairwise incomparable ones."""
    n = _vertex_count(n)
    if n < 2:
        raise InputError("a corolla has at least two vertices")
    _check_canon_bound(n)
    rows = [(1 << n) - 1] + [1 << i for i in range(1, n)]
    return QuasiOrderClass(QuasiOrder(n, rows))


def _corolla_or_point(n):
    return discrete(1) if n == 1 else corolla(n)


def topo_name(tc):
    """Short name (l3, c4, disc2, unit 1) when the isoclass has one, else None."""
    n = tc.n
    if n == 0:
        return "1"
    # Up-set sizes alone decide it.  Equivalent vertices share their
    # up-set, so each pattern below forces singleton classes: sizes all 1
    # (the discrete topology), all distinct (a chain), or n-1 ones and one
    # n (a corolla); any other topology has no short name.
    pops = sorted(r.bit_count() for r in tc.q.rows)
    if pops[-1] == 1:
        return f"disc{n}"
    if pops == list(range(1, n + 1)):
        return f"l{n}"
    if n >= 3 and pops == [1] * (n - 1) + [n]:
        return f"c{n}"
    return None


def render_topo(tc):
    """Short name when there is one, else the grammar text in brackets
    (the text contains commas, so it is fenced off inside term lists)."""
    name = topo_name(tc)
    return name if name is not None else f"[{tc.q.to_text()}]"


@cache
def render_basis(key):
    """Render a basis key: an isoclass or a tuple of them (tensor factors)."""
    if isinstance(key, tuple):
        return " (x) ".join(map(render_basis, key))
    return render_topo(key)


def open_sets(q):
    """The open sets as sorted vertex tuples (spec-facing form of the masks)."""
    out = []
    for m in q.open_mask_list():
        out.append(tuple(i for i in range(q.n) if (m >> i) & 1))
    return out


class Partition:
    """A set partition of {0..n-1}: nonempty disjoint covering blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        n = _vertex_count(n)
        norm = []
        seen = 0
        for b in blocks:
            b = tuple(sorted(set(as_int(v, "vertex") for v in b)))
            if not b:
                raise InputError("empty block")
            m = 0
            for v in b:
                if not 0 <= v < n:
                    raise InputError(f"vertex {v} outside 0..{n - 1}")
                m |= 1 << v
            if m & seen:
                raise InputError("blocks overlap")
            seen |= m
            norm.append(b)
        if seen != (1 << n) - 1:
            raise InputError("blocks do not cover the vertex set")
        self.n = n
        self.blocks = tuple(sorted(norm))

    def masks(self):
        return [sum(1 << v for v in b) for b in self.blocks]

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        return " | ".join(",".join(str(v + 1) for v in b) for b in self.blocks)

    def __repr__(self):
        return f"Partition({self.n}, {self.blocks!r})"


def set_partitions(n):
    """All set partitions of {0..n-1}."""
    n = _vertex_count(n)
    if n == 0:
        yield Partition(0, [])
        return

    def rec(i, blocks):
        if i == n:
            yield Partition(n, blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _ec_blocks(q):
    """Yield (blocks, reach) for every partition in E_c.

    blocks are masks in order of lowest vertex; reach[k] is the quotient
    row of every vertex of blocks[k].  The block holding the lowest free vertex
    is a submask of the free vertices connected in the comparability graph.
    A partition is admissible when no two distinct blocks reach each other
    in the block digraph, i.e. contracting the blocks identifies nothing
    further.  A block related both ways to an earlier one is refused on
    the spot; longer cycles are found by one bitmask closure per partition.
    """
    rows = q.rows
    adj = [r | c for r, c in zip(rows, _columns(rows, q.n))]
    blocks = []
    ups = []  # up-set of each block in q

    def connected(b):
        comp = b & -b
        while True:
            grown = comp
            m = comp
            while m:
                low = m & -m
                grown |= adj[low.bit_length() - 1]
                m ^= low
            grown &= b
            if grown == comp:
                return comp == b
            comp = grown

    def quotient_rows():
        reach = list(ups)
        k = len(blocks)
        for c in range(k):
            bc, rc = blocks[c], reach[c]
            for a in range(k):
                if reach[a] & bc:
                    reach[a] |= rc
        for a in range(k):
            for c in range(a + 1, k):
                if reach[a] & blocks[c] and reach[c] & blocks[a]:
                    return None
        return reach

    def rec(free):
        if not free:
            reach = quotient_rows()
            if reach is not None:
                yield list(blocks), reach
            return
        low = free & -free
        rest = free ^ low
        sub = rest
        while True:
            b = low | sub
            if connected(b):
                up = 0
                m = b
                while m:
                    bit = m & -m
                    up |= rows[bit.bit_length() - 1]
                    m ^= bit
                if not any(up & a and u & b for a, u in zip(blocks, ups)):
                    blocks.append(b)
                    ups.append(up)
                    yield from rec(free ^ b)
                    blocks.pop()
                    ups.pop()
            if not sub:
                return
            sub = (sub - 1) & rest

    yield from rec(q.full_mask)


def _check_delta_bound(n):
    if n > DELTA_BOUND:
        raise SizeBoundError(f"size bound: contraction partitions stop at n = {DELTA_BOUND}")


def ec_partitions(q):
    if isinstance(q, QuasiOrderClass):
        q = q.q
    _check_delta_bound(q.n)
    return [
        Partition(q.n, [[v for v in range(q.n) if (b >> v) & 1] for b in blocks])
        for blocks, _ in _ec_blocks(q)
    ]


# -- the two coproducts ------------------------------------------------------


def coproduct_Delta(t):
    """Split along open sets: sum of (complement part, open part)."""
    return _Delta_class(as_class(t))


@cache
def _Delta_class(tc):
    q = tc.q
    full = q.full_mask
    return lin_sum(
        (ONE, {(canonicalize(q.restrict_mask(full & ~O)), canonicalize(q.restrict_mask(O))): ONE})
        for O in q.open_mask_list()
    )


def delta_bar_tuples(q, k):
    """All k-factor terms of the iterated reduced open-set coproduct, one
    per chain of proper nonempty open sets, on labeled quasi-orders.  The
    oracles read it; the class routes read _Delta_class instead."""
    k = as_int(k, "factor count")
    if k == 1:
        if q.n:
            yield (q,)
        return
    full = q.full_mask
    for O in q.open_mask_list():
        if O and O != full:
            right = q.restrict_mask(O)
            for tup in delta_bar_tuples(q.restrict_mask(full & ~O), k - 1):
                yield tup + (right,)


def coproduct_delta(t):
    """Contraction-restriction: sum of (quotient, block restriction) over E_c."""
    tc = as_class(t)
    _check_delta_bound(tc.n)
    return _delta_class(tc)


@cache
def _delta_class(tc):
    n, rows = tc.n, tc.q.rows
    splits = []
    for blocks, reach in _ec_blocks(tc.q):
        quot = [0] * n
        restr = [0] * n
        for b, up in zip(blocks, reach):
            m = b
            while m:
                low = m & -m
                v = low.bit_length() - 1
                quot[v] = up
                restr[v] = rows[v] & b
                m ^= low
        key = canonicalize(QuasiOrder.closed(n, quot)), canonicalize(QuasiOrder.closed(n, restr))
        splits.append((ONE, {key: ONE}))
    return lin_sum(splits)


def eps_delta(t):
    """Counit of the contraction coproduct: 1 on discrete topologies."""
    tc = as_class(t)
    return Fraction(1) if tc.q.is_equivalence() else ZERO


# -- products ----------------------------------------------------------------


def _bilinear(op, x, y):
    """op on the quasi-orders of the classes, extended bilinearly."""
    x, y = as_topo_elem(x), as_topo_elem(y)
    return lin_sum(
        (ca * cb, {canonicalize(op(a.q, b.q)): ONE})
        for a, ca in x.terms.items()
        for b, cb in y.terms.items()
    )


def product_m(x, y):
    """Disjoint union, extended bilinearly."""
    return _bilinear(QuasiOrder.disjoint_union, x, y)


def down_product(x, y):
    """Stacking product, extended bilinearly."""
    return _bilinear(QuasiOrder.down, x, y)


# -- the infinitesimal projector and the bracket -----------------------------


def inf_pi(x):
    """Projector onto the primitives of the open-set coproduct; kills
    stacked products, fixes primitives.

    pi is the alternating sum over k of the (k-1)-fold stacking of the
    (k-1)-fold reduced coproduct, which on the augmentation ideal is -S for
    the antipode S (Takeuchi's formula); each class's image is read off the
    memoized antipode recursion over the cached Delta, not summed over
    chains of open sets.
    """
    return _linear(x, _pi_class)


def binf_bracket(xs, ys):
    """pi((x1 down ... down xk)(y1 down ... down yl)) on lists of primitives."""
    one = LinComb.single(unit_class())
    left = reduce(down_product, xs, one)
    right = reduce(down_product, ys, one)
    return inf_pi(product_m(left, right))


# -- Upsilon and lambda ------------------------------------------------------

def upsilon(t, method="recursive"):
    """The polynomial invariant; both methods agree.

    recursive: read off the cached Delta; each split whose closed part is a
    nonempty union of minimal classes is one step, X per step, and a step
    that empties the topology contributes 1 (absorbing the 1/X convention
    for the empty topology, which is never returned).
    surjection_oracle: coefficient of X^(k-1) counts the strictly
    order-preserving surjections from the class poset onto a k-chain.
    """
    tc = as_class(t)
    if tc.n == 0:
        raise InputError("unit topology")
    if method == "recursive":
        return _upsilon_rec(tc)
    if method == "surjection_oracle":
        return _upsilon_oracle(tc)
    raise InputError(f"unknown method {method!r}")


@cache
def _upsilon_rec(tc):
    """Upsilon's recursive route, with U(unit) = 1: a split whose closed part
    is a nonempty discrete down-set gives X * U(open part), or 1."""
    if tc.n == 0:
        return Poly.const(1)
    parts = []
    for (low, up), c in _Delta_class(tc).terms.items():
        if low.n and low.q.is_equivalence():
            step = 1 if up.n else 0
            parts.append((c, [(k + step, v) for k, v in _upsilon_rec(up).coeffs.items()]))
    return Poly(term_sum(parts))


def _upsilon_oracle(tc):
    q = tc.q
    cls = q.classes()
    k = len(cls)
    reps = [c[0] for c in cls]
    strict = [
        (a, b)
        for a in range(k)
        for b in range(k)
        if a != b and q.leq(reps[a], reps[b]) and not q.leq(reps[b], reps[a])
    ]
    return Poly({
        m - 1: sum(
            1
            for f in _product(range(m), repeat=k)
            if len(set(f)) == m and all(f[a] < f[b] for a, b in strict)
        )
        for m in range(1, k + 1)
    })


def lambda_char(x, method="upsilon_integral"):
    """The linear form driving the Eulerian idempotent; 0 on the unit.

    upsilon_integral: integrate Upsilon over [-1, 0].
    delta_series: log-of-counit series, alternating sums of discrete counts
    over the iterated reduced open-set coproduct.
    """
    if method == "upsilon_integral":
        route = _lambda_class
    elif method == "delta_series":
        route = _lambda_delta_series
    else:
        raise InputError(f"unknown method {method!r}")
    return _linear(x, route, total=lambda pairs: sum((c * v for c, v in pairs), ZERO))


@cache
def _lambda_class(tc):
    if tc.n == 0:
        return ZERO
    return _upsilon_rec(tc).integrate_unit_interval()


def _lambda_delta_series(tc):
    q = tc.q
    total = ZERO
    for k in range(1, q.n + 1):
        count = 0
        for tup in delta_bar_tuples(q, k):
            if all(f.is_equivalence() for f in tup):
                count += 1
        if count:
            total += Fraction((-1) ** (k - 1), k) * count
    return total


# -- Eulerian idempotent -----------------------------------------------------

def _check_euler_bound(n):
    if n > EULER_BOUND:
        raise SizeBoundError(f"size bound: the Eulerian idempotent stops at n = {EULER_BOUND}")


def eulerian_e(t, method="via_delta"):
    """The canonical idempotent: kills products and the unit, fixes a
    complement of them.

    via_delta: (lambda (x) Id) applied to the contraction coproduct.
    direct: the log-of-identity series for the open-set coproduct.
    """
    if method == "via_delta":
        route = _e_class
    elif method == "direct":
        route = _e_direct
    else:
        raise InputError(f"unknown method {method!r}")
    return _linear(t, route, _check_euler_bound)


@cache
def _e_class(tc):
    """(lambda (x) Id) o delta, read off the cached delta."""
    return _delta_class(tc).apply(lambda split: {split[1]: _lambda_class(split[0])})


@cache
def _e_direct(tc):
    q = tc.q
    return lin_sum(
        (Fraction((-1) ** (k - 1), k), {canonicalize(reduce(QuasiOrder.disjoint_union, tup)): ONE})
        for k in range(1, q.n + 1)
        for tup in delta_bar_tuples(q, k)
    )


def canonical_pi_idem(t):
    """pi composed with the Eulerian idempotent; lands in the primitives."""
    return _linear(t, _pieul_class, _check_euler_bound)


@cache
def _pieul_class(tc):
    return _e_class(tc).apply(_pi_class)


# -- antipode of (down, Delta) -----------------------------------------------

def antipode(t):
    """Convolution inverse of the identity for the stacking product.

    S(1) = 1 and S(x) = -x - sum S(x') down x'' over the proper splits of
    the cached Delta.
    On the augmentation ideal -S is pi (not at the unit); inf_pi reads it
    from here.
    """
    return _linear(t, _antipode_class)


@cache
def _antipode_class(tc):
    if tc.n == 0:
        return LinComb.single(tc)
    return lin_sum(
        [(-ONE, {tc: ONE})]
        + [
            (-c * ca, {canonicalize(a.q.down(right.q)): ONE})
            for (left, right), c in _Delta_class(tc).terms.items()
            if left.n and right.n
            for a, ca in _antipode_class(left).terms.items()
        ]
    )


@cache
def _pi_class(tc):
    if tc.n == 0:
        raise InputError("not augmentation-reduced")
    return -_antipode_class(tc)


# -- named families and closed forms -----------------------------------------


def surjection_count(n, k):
    """Surjections from an n-set onto a (k+1)-set, by inclusion-exclusion."""
    n, k = as_int(n, "set size"), as_int(k, "k")
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    return sum((-1) ** j * comb(k + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def closed_form_e(kind, n):
    """Closed forms for the Eulerian idempotent on the two named families."""
    n = as_int(n, "vertex count")
    if n < 2:
        raise InputError("closed forms start at n = 2")
    _check_euler_bound(n)
    if kind == "ladder":
        return lin_sum(
            (Fraction((-1) ** (len(c) + 1), len(c)),
             {canonicalize(reduce(QuasiOrder.disjoint_union, [ladder(part).q for part in c])): ONE})
            for c in compositions(n)
        )
    if kind == "corolla":
        return lin_sum(
            (coeff, {canonicalize(QuasiOrder(i).disjoint_union(_corolla_or_point(n - i).q)): ONE})
            for i in range(n)
            if (coeff := comb(n - 1, i) * _lambda_class(_corolla_or_point(i + 1)))
        )
    raise InputError(f"unknown kind {kind!r}")


# -- isoclass enumeration ----------------------------------------------------


def all_isoclasses(n):
    """Every topology isoclass on n points, sorted by key, as a shared tuple."""
    n = _vertex_count(n)
    if n > ISO_BOUND:
        raise SizeBoundError(f"size bound: isoclass enumeration stops at n = {ISO_BOUND}")
    return _isoclasses(n)


@cache
def _isoclasses(n):
    """Every topology minus a vertex is a topology, so the classes on n
    points are the one-point extensions of those on n - 1 (a set of classes
    merges repeats on the key)."""
    if n == 0:
        return (canonicalize(QuasiOrder(0)),)
    return tuple(sorted({
        canonicalize(QuasiOrder.closed(n, rows))
        for tc in _isoclasses(n - 1)
        for rows in _one_point_extensions(tc.q)
    }))


def _one_point_extensions(q):
    """Rows of q plus a vertex q.n placed below an open set U and above a
    down-set D, for each pair with every vertex of D below all of U; the
    rows come out reflexive and transitive."""
    rows = q.rows
    bit = 1 << q.n
    opens = q.open_mask_list()
    for U in opens:
        below = sum(1 << d for d, r in enumerate(rows) if r & U == U)
        for O in opens:
            D = q.full_mask ^ O
            if not D & ~below:
                yield [r | bit if (D >> i) & 1 else r for i, r in enumerate(rows)] + [U | bit]
