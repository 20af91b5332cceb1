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
computed once per class: the routes below are memoized on the class key in
module-level `*_MEMO` dicts (canonical forms are memoized on the labeled
input as well).  Reads are concurrency-safe and insertions idempotent, so
racing threads can only repeat work, never corrupt a result.  Memoized
results are shared objects: nothing may mutate them.
"""

from __future__ import annotations

import functools
from itertools import combinations, product as _product
from math import comb

from .exactlin import (
    ONE,
    Fraction,
    InputError,
    LinComb,
    Poly,
    SizeBoundError,
    ZERO,
    lin_sum,
)
from .words import compositions

CANON_BOUND = 8
OPENS_BOUND = 15
DELTA_BOUND = 7
EULER_BOUND = 6
ISO_BOUND = 5


class QuasiOrder:
    """A reflexive transitive relation on {0..n-1}, bit j of rows[i] = (i <= j).

    The constructor closes the given relation reflexively and transitively,
    so any generating set of pairs is acceptable input.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, rows=None):
        n = int(n)
        if n < 0:
            raise InputError("negative vertex count")
        self.n = n
        base = [1 << i for i in range(n)]
        if rows is not None:
            rows = list(rows)
            if len(rows) != n:
                raise InputError(f"expected {n} rows, got {len(rows)}")
            full = (1 << n) - 1
            for i, r in enumerate(rows):
                r = int(r)
                if r & ~full:
                    raise InputError("relation bits out of vertex range")
                base[i] |= r
        self.rows = base
        for k in range(n):
            bit = 1 << k
            rk = base[k]
            for i in range(n):
                if base[i] & bit:
                    base[i] |= rk

    @classmethod
    def closed(cls, n, rows):
        """Wrap rows that are already reflexive and transitive: no checks,
        no closure.  For relations derived from a QuasiOrder by restriction,
        relabeling, stacking or contraction."""
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
        if self.n > OPENS_BOUND:
            raise SizeBoundError(f"size bound: open-set enumeration stops at n = {OPENS_BOUND}")
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


def _check_vertex_count(n):
    """Refuse, before anything is allocated, more vertices than any
    topology computation here can take."""
    if n > OPENS_BOUND:
        raise SizeBoundError(f"size bound: topologies stop at n = {OPENS_BOUND}")


def parse_topology(text):
    """Parse "n; 1<2, 2~3" (reflexive-transitive closure of the generators)."""
    text = text.strip()
    if not text:
        raise InputError("empty topology text")
    head, sep, tail = text.partition(";")
    try:
        n = int(head.strip())
    except ValueError:
        raise InputError(f"bad vertex count {head.strip()!r}") from None
    if n < 0:
        raise InputError("negative vertex count")
    _check_vertex_count(n)
    rows = [1 << i for i in range(n)]
    if sep:
        for part in tail.split(","):
            part = part.strip()
            if not part:
                continue
            if "<" in part:
                a, _, b = part.partition("<")
                both = False
            elif "~" in part:
                a, _, b = part.partition("~")
                both = True
            else:
                raise InputError(f"bad relation {part!r}: expected i<j or i~j")
            try:
                i, j = int(a.strip()) - 1, int(b.strip()) - 1
            except ValueError:
                raise InputError(f"bad relation {part!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"relation {part!r} mentions a vertex outside 1..{n}")
            if i == j:
                raise InputError(f"relation {part!r} relates a vertex to itself")
            rows[i] |= 1 << j
            if both:
                rows[j] |= 1 << i
    return QuasiOrder(n, rows)


_CANON_MEMO = {}


def _per_class(memo):
    """Memoize a route f(tc) in the table memo, keyed by the isoclass."""

    def wrap(fn):
        @functools.wraps(fn)
        def route(tc):
            hit = memo.get(tc.key)
            if hit is None:
                hit = memo[tc.key] = fn(tc)
            return hit

        return route

    return wrap


class QuasiOrderClass:
    """A topology up to homeomorphism: the lex-least relation matrix.

    Over all relabelings the matrix is flattened row-major and the least is
    kept (`_lex_min_rows`); two quasi-orders canonicalize equal iff they are
    isomorphic.  Labeled inputs already seen are answered from a memo.
    """

    __slots__ = ("q", "key")

    def __init__(self, q):
        if q.n > CANON_BOUND:
            raise SizeBoundError(f"size bound: canonical forms stop at n = {CANON_BOUND}")
        memo_key = (q.n, tuple(q.rows))
        hit = _CANON_MEMO.get(memo_key)
        if hit is not None:
            self.q, self.key = hit
            return
        n = q.n
        best = _lex_min_rows(q.rows, n)
        rows = [sum(1 << j for j in range(n) if (val >> (n - 1 - j)) & 1) for val in best]
        self.q = QuasiOrder.closed(n, rows)
        self.key = (n, best)
        _CANON_MEMO[memo_key] = (self.q, self.key)
        _CANON_MEMO[(n, tuple(self.q.rows))] = (self.q, self.key)

    @property
    def n(self):
        return self.q.n

    def __eq__(self, other):
        if not isinstance(other, QuasiOrderClass):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

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


def unit_class():
    return QuasiOrderClass(QuasiOrder(0))


def discrete(n):
    return QuasiOrderClass(QuasiOrder(n))


def ladder(n):
    """The chain on n vertices."""
    if n < 1:
        raise InputError("a ladder has at least one vertex")
    _check_vertex_count(n)
    rows = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    return QuasiOrderClass(QuasiOrder(n, rows))


def corolla(n):
    """One minimal vertex below n-1 pairwise incomparable ones."""
    if n < 2:
        raise InputError("a corolla has at least two vertices")
    _check_vertex_count(n)
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


_RENDER_MEMO = {}


@_per_class(_RENDER_MEMO)
def render_topo(tc):
    """Short name when there is one, else the grammar text in brackets
    (the text contains commas, so it is fenced off inside term lists)."""
    name = topo_name(tc)
    return name if name is not None else f"[{tc.q.to_text()}]"


def render_basis(key):
    """Render a basis key: an isoclass or a tuple of them (tensor factors)."""
    if isinstance(key, tuple):
        return " (x) ".join(render_topo(t) for t in key)
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
        n = int(n)
        norm = []
        seen = 0
        for b in blocks:
            b = tuple(sorted(set(int(v) for v in b)))
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


def _ec_splits(q):
    """(quotient, block restriction) for every partition in E_c."""
    n, rows = q.n, q.rows
    for blocks, reach in _ec_blocks(q):
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
        yield QuasiOrder.closed(n, quot), QuasiOrder.closed(n, restr)


def _check_delta_bound(q):
    if q.n > DELTA_BOUND:
        raise SizeBoundError(f"size bound: contraction partitions stop at n = {DELTA_BOUND}")


def ec_partitions(q):
    if isinstance(q, QuasiOrderClass):
        q = q.q
    _check_delta_bound(q)
    return [
        Partition(q.n, [[v for v in range(q.n) if (b >> v) & 1] for b in blocks])
        for blocks, _ in _ec_blocks(q)
    ]


# -- the two coproducts ------------------------------------------------------


_OPEN_SPLIT_MEMO = {}
_EC_SPLIT_MEMO = {}


def coproduct_Delta(t):
    """Split along open sets: sum of (complement part, open part)."""
    return _Delta_class(as_class(t))


@_per_class(_OPEN_SPLIT_MEMO)
def _Delta_class(tc):
    q = tc.q
    full = q.full_mask
    return lin_sum(
        (ONE, {(canonicalize(q.restrict_mask(full & ~O)), canonicalize(q.restrict_mask(O))): ONE})
        for O in q.open_mask_list()
    )


def _reduced_splits(q):
    """Proper nonempty open splittings (complement part, open part)."""
    full = q.full_mask
    for O in q.open_mask_list():
        if O == 0 or O == full:
            continue
        yield q.restrict_mask(full & ~O), q.restrict_mask(O)


def delta_bar_tuples(q, k):
    """All k-factor terms of the iterated reduced open-set coproduct."""
    if k == 1:
        if q.n:
            yield (q,)
        return
    for left, right in _reduced_splits(q):
        for tup in delta_bar_tuples(left, k - 1):
            yield tup + (right,)


def coproduct_delta(t):
    """Contraction-restriction: sum of (quotient, block restriction) over E_c."""
    tc = as_class(t)
    _check_delta_bound(tc.q)
    return _delta_class(tc)


@_per_class(_EC_SPLIT_MEMO)
def _delta_class(tc):
    return lin_sum(
        (ONE, {(canonicalize(quot), canonicalize(restr)): ONE}) for quot, restr in _ec_splits(tc.q)
    )


def eps_delta(t):
    """Counit of the contraction coproduct: 1 on discrete topologies."""
    tc = as_class(t)
    return Fraction(1) if tc.q.is_equivalence() else ZERO


# -- products ----------------------------------------------------------------


def product_m(x, y):
    """Disjoint union, extended bilinearly."""
    x, y = as_topo_elem(x), as_topo_elem(y)
    return lin_sum(
        (ca * cb, {canonicalize(a.q.disjoint_union(b.q)): ONE})
        for a, ca in x.terms.items()
        for b, cb in y.terms.items()
    )


def down_product(x, y):
    """Stacking product, extended bilinearly."""
    x, y = as_topo_elem(x), as_topo_elem(y)
    return lin_sum(
        (ca * cb, {canonicalize(a.q.down(b.q)): ONE})
        for a, ca in x.terms.items()
        for b, cb in y.terms.items()
    )


# -- the infinitesimal projector and the bracket -----------------------------

_PI_MEMO = {}


def inf_pi(x):
    """Projector onto the primitives of the open-set coproduct; kills
    stacked products, fixes primitives.

    pi is the alternating sum over k of the (k-1)-fold stacking of the
    (k-1)-fold reduced coproduct, which on the augmentation ideal is -S for
    the antipode S (Takeuchi's formula); each class's image is read off the
    memoized antipode recursion, not summed over chains of open sets.
    """
    x = as_topo_elem(x)
    if any(tc.n == 0 for tc in x.terms):
        raise InputError("not augmentation-reduced")
    return lin_sum((c, _pi_class(tc)) for tc, c in x.terms.items())


@_per_class(_PI_MEMO)
def _pi_class(tc):
    return -_antipode_class(tc)


def _fold(op, factors):
    acc = factors[0]
    for f in factors[1:]:
        acc = op(acc, f)
    return acc


def _down_fold(elems):
    acc = LinComb.single(unit_class())
    for e in elems:
        acc = down_product(acc, e)
    return acc


def binf_bracket(xs, ys):
    """pi((x1 down ... down xk)(y1 down ... down yl)) on lists of primitives."""
    return inf_pi(product_m(_down_fold(xs), _down_fold(ys)))


# -- Upsilon and lambda ------------------------------------------------------

_UPSILON_MEMO = {}


def upsilon(t, method="recursive"):
    """The polynomial invariant; both methods agree.

    recursive: strip nonempty unions of minimal classes, X per step; a step
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


@_per_class(_UPSILON_MEMO)
def _upsilon_rec(tc):
    q = tc.q
    cls_masks = [sum(1 << v for v in c) for c in q.classes()]
    minimal = []
    for m in cls_masks:
        i = (m & -m).bit_length() - 1
        if all(
            m2 == m or not q.leq((m2 & -m2).bit_length() - 1, i) for m2 in cls_masks
        ):
            minimal.append(m)
    out = Poly()
    full = q.full_mask
    x = Poly.x_power(1)
    for r in range(1, len(minimal) + 1):
        for sel in combinations(minimal, r):
            rest = full
            for m in sel:
                rest &= ~m
            if rest == 0:
                out = out + Poly.const(1)
            else:
                out = out + x * _upsilon_rec(canonicalize(q.restrict_mask(rest)))
    return out


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
    out = Poly()
    for m in range(1, k + 1):
        count = 0
        for f in _product(range(m), repeat=k):
            if len(set(f)) != m:
                continue
            if all(f[a] < f[b] for a, b in strict):
                count += 1
        if count:
            out = out + Poly.x_power(m - 1, count)
    return out


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
    x = as_topo_elem(x)
    total = ZERO
    for tc, c in x.items():
        total += c * route(tc)
    return total


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

_E_MEMO = {}
_E_DIRECT_MEMO = {}
_PIEUL_MEMO = {}


def _check_euler_bound(x):
    if any(tc.n > EULER_BOUND for tc in x.terms):
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
    x = as_topo_elem(t)
    _check_euler_bound(x)
    return lin_sum((c, route(tc)) for tc, c in x.terms.items())


@_per_class(_E_MEMO)
def _e_class(tc):
    return lin_sum(
        (lam, {canonicalize(restr): ONE})
        for quot, restr in _ec_splits(tc.q)
        if (lam := _lambda_class(canonicalize(quot)))
    )


@_per_class(_E_DIRECT_MEMO)
def _e_direct(tc):
    q = tc.q
    return lin_sum(
        (Fraction((-1) ** (k - 1), k), {canonicalize(_fold(QuasiOrder.disjoint_union, tup)): ONE})
        for k in range(1, q.n + 1)
        for tup in delta_bar_tuples(q, k)
    )


def canonical_pi_idem(t):
    """pi composed with the Eulerian idempotent; lands in the primitives."""
    x = as_topo_elem(t)
    _check_euler_bound(x)
    return lin_sum((c, _pieul_class(tc)) for tc, c in x.terms.items())


@_per_class(_PIEUL_MEMO)
def _pieul_class(tc):
    return inf_pi(_e_class(tc))


# -- antipode of (down, Delta) -----------------------------------------------

_ANTIPODE_MEMO = {}


def antipode(t):
    """Convolution inverse of the identity for the stacking product.

    S(1) = 1 and S(x) = -x - sum S(x') down x'' over the reduced coproduct.
    On the augmentation ideal -S is pi (not at the unit); inf_pi reads it
    from here.
    """
    x = as_topo_elem(t)
    return lin_sum((c, _antipode_class(tc)) for tc, c in x.terms.items())


@_per_class(_ANTIPODE_MEMO)
def _antipode_class(tc):
    if tc.n == 0:
        return LinComb.single(tc)
    return lin_sum(
        [(-ONE, {tc: ONE})]
        + [
            (-ca, {canonicalize(a.q.down(right)): ONE})
            for left, right in _reduced_splits(tc.q)
            for a, ca in _antipode_class(canonicalize(left)).terms.items()
        ]
    )


# -- named families and closed forms -----------------------------------------


def surjection_count(n, k):
    """Surjections from an n-set onto a (k+1)-set, by inclusion-exclusion."""
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    return sum((-1) ** j * comb(k + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def closed_form_e(kind, n):
    """Closed forms for the Eulerian idempotent on the two named families."""
    if n < 2:
        raise InputError("closed forms start at n = 2")
    if n > EULER_BOUND:
        raise SizeBoundError(f"size bound: the Eulerian idempotent stops at n = {EULER_BOUND}")
    if kind == "ladder":
        return lin_sum(
            (Fraction((-1) ** (len(c) + 1), len(c)),
             {canonicalize(_fold(QuasiOrder.disjoint_union, [ladder(part).q for part in c])): ONE})
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

_POSET_MEMO = {}
_ISO_MEMO = {}


def _labeled_posets(k):
    """All partial orders on {0..k-1}: orientation choices filtered by transitivity."""
    hit = _POSET_MEMO.get(k)
    if hit is not None:
        return hit
    pairs = list(combinations(range(k), 2))
    out = []
    for choice in _product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(k)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        q = QuasiOrder(k, rows)
        if q.rows == rows:
            out.append(q)
    _POSET_MEMO[k] = out
    return out


def all_isoclasses(n):
    """Every topology isoclass on n points: partitions into classes times
    partial orders on the classes."""
    if n > ISO_BOUND:
        raise SizeBoundError(f"size bound: isoclass enumeration stops at n = {ISO_BOUND}")
    if n < 0:
        raise InputError("negative vertex count")
    hit = _ISO_MEMO.get(n)
    if hit is not None:
        return hit
    seen = {}
    for p in set_partitions(n):
        masks = p.masks()
        k = len(masks)
        for P in _labeled_posets(k):
            rows = [0] * n
            for b in range(k):
                below = 0
                for b2 in range(k):
                    if (P.rows[b] >> b2) & 1:
                        below |= masks[b2]
                m = masks[b]
                while m:
                    v = (m & -m).bit_length() - 1
                    rows[v] = below
                    m &= m - 1
            tc = canonicalize(QuasiOrder(n, rows))
            seen[tc.key] = tc
    out = sorted(seen.values())
    _ISO_MEMO[n] = out
    return out
