"""Seeded op schedules for the three workloads.

A schedule is a list of rounds.  Every round of a workload has the same
op mix (kinds, structures, sizes); the seed only draws the letters, the
topologies, their labelings, the scalars and the order of ops inside a
round.  The timed phase runs whole rounds, so two seeds measure the same
mix on different inputs.

An op is a plain dict of text inputs; the program under test sees only
those strings.  Fields used only by the correctness gate are prefixed
with "check_".
"""

from __future__ import annotations

import random

WORKLOADS = ("words", "topo", "descent")

# Tail percentile per workload, fixed so that every run has at least ten ops
# beyond it.  topo stops at p95: above it sit only its 6-point delta2 scans,
# whose cost depends on the drawn input (see README.md).
TAIL_PERCENTILE = {"words": 99, "topo": 95, "descent": 85}

SETUP_REPEATS = 9

# Rounds a library session runs before its clock starts, so that the timed
# phase sees warm memos, as a long-lived session does.
WARMUP_ROUNDS = 1
MAX_ROUNDS = 200


# -- words --------------------------------------------------------------------


def _saturating_table(cap):
    lines = ["mode: qshuffle", "alphabet: " + ", ".join(f"x{i}:{i}" for i in range(1, cap + 1))]
    for i in range(1, cap + 1):
        for j in range(1, cap + 1):
            lines.append(f"x{i} * x{j} = x{min(i + j, cap)}")
    return "\n".join(lines) + "\n"


# Bracket table files, in the format of gebra.binfty.parse_bracket_file.
STRUCTURES = {
    "qs3": _saturating_table(3),
    "sh3": "mode: shuffle\nalphabet: x1:1, x2:2, x3:3\n",
    "flalg": "mode: explicit\nalphabet: a:1, b:2\nbound: 6\na , a -> 2*b\n",
    "sh6": "mode: shuffle\nalphabet: a, b, c, d, e, f\n",
}
_LETTERS = {
    "qs3": ("x1", "x2", "x3"),
    "sh3": ("x1", "x2", "x3"),
    "flalg": ("a", "b"),
    "sh6": ("a", "b", "c", "d", "e", "f"),
}
_LENGTH7_KINDS = ("eulerian", "varpi", "omega", "prod")


def _word(rng, structure, n):
    letters = _LETTERS[structure]
    if structure == "sh6":
        return ".".join(rng.sample(letters, n))
    return ".".join(rng.choice(letters) for _ in range(n))


def _word_ops(rng, structure, n, kind):
    if kind == "prod":
        return [{"kind": "prod", "structure": structure,
                 "word": _word(rng, structure, (n + 1) // 2),
                 "word2": _word(rng, structure, n // 2)}]
    if kind == "omega":
        w = _word(rng, structure, n)
        omega = {"kind": "omega", "structure": structure, "word": w}
        zeta = {"kind": "zeta", "structure": structure, "from": omega, "check_word": w}
        return [omega, zeta]
    return [{"kind": kind, "structure": structure, "word": _word(rng, structure, n)}]


def _words_round(rng, r):
    ops = []
    for structure in STRUCTURES:
        for n in (3, 4, 5, 6):
            for kind in ("prod", "eulerian", "varpi", "omega"):
                ops.extend(_word_ops(rng, structure, n, kind))
    ops.extend(_word_ops(rng, "sh3", 7, _LENGTH7_KINDS[r % len(_LENGTH7_KINDS)]))
    return ops


# -- topo ---------------------------------------------------------------------

_RANDOM_OPS_SMALL = ("class", "delta", "delta2", "pi", "eulerian", "pieul", "upsilon", "lambda")
_RANDOM_OPS_6 = ("class", "delta", "delta2", "upsilon", "lambda")
_FAMILY_OPS = ("delta2", "pi", "eulerian", "pieul", "lambda")


def _topology_text(n, pairs, rng):
    """Grammar text for the given (i, j) pairs (i below j), relabeled at random."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rel = [f"{perm[i]}<{perm[j]}" for i, j in pairs]
    rng.shuffle(rel)
    return f"{n}; " + ", ".join(rel) if rel else str(n)


def _random_topology(rng, n, density):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
    return _topology_text(n, pairs, rng)


def _family_topology(rng, family, n):
    if family == "ladder":
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [(0, i) for i in range(1, n)]
    return _topology_text(n, pairs, rng)


def _topo_round(rng, r):
    ops = []
    for n in (3, 4, 5, 6):
        for density in (0.15, 0.35):
            text = _random_topology(rng, n, density)
            for kind in (_RANDOM_OPS_6 if n == 6 else _RANDOM_OPS_SMALL):
                ops.append({"kind": kind, "topology": text})
    for family in ("ladder", "corolla"):
        for n in (4, 5, 6):
            for kind in _FAMILY_OPS:
                ops.append({"kind": kind, "topology": _family_topology(rng, family, n),
                            "check_family": [family, n]})
    ops.append({"kind": "iso", "k": rng.randint(1, 4)})
    for kind in ("class", "delta2"):
        ops.append({"kind": kind, "topology": _random_topology(rng, 9, 0.2),
                    "check_refused": True})
    return ops


# -- descent ------------------------------------------------------------------


def _scalar(rng):
    num, den = rng.randint(1, 9), rng.randint(1, 4)
    return str(num) if den == 1 else f"{num}/{den}"


def _identity(p):
    return " ".join(str(i) for i in range(1, p + 1))


def _descent_round(rng, r):
    ops = []
    for kind in ("dynkin", "solomon"):
        for n in range(3, 8):
            argv = ["desc", kind, str(n)] + (["--json"] if (n + r) % 2 == 0 else [])
            ops.append({"argv": argv, "check_kind": kind, "check_n": n})
    for n in (3, 4, 5):
        argv = ["desc", "check", str(n)] + (["--json"] if (n + r) % 2 == 1 else [])
        ops.append({"argv": argv, "check_kind": "check", "check_n": n})
    for _ in range(4):
        p = rng.randint(1, 5)
        q = rng.randint(1, 7 - p)
        c, d = _scalar(rng), _scalar(rng)
        ops.append({"argv": ["desc", "conv", f"{c}*{_identity(p)}", f"{d}*{_identity(q)}"],
                    "check_kind": "conv", "check_pq": [p, q], "check_cd": [c, d]})
    ops.append({"argv": ["desc", "solomon", "8"], "check_kind": "refused"})
    ops.append({"argv": ["desc", "check", "9"], "check_kind": "refused"})
    return ops


_ROUNDS = {"words": _words_round, "topo": _topo_round, "descent": _descent_round}


def _shuffle_round(rng, ops):
    """Shuffle a round, keeping each zeta op after the omega op it reads."""
    rng.shuffle(ops)
    out, placed, waiting = [], set(), {}
    for op in ops:
        src = op.get("from")
        if src is not None and id(src) not in placed:
            waiting.setdefault(id(src), []).append(op)
            continue
        out.append(op)
        placed.add(id(op))
        out.extend(waiting.pop(id(op), ()))
    return out


def schedule(workload, seed, rounds=MAX_ROUNDS):
    """The seeded schedule: a list of rounds, each a list of op dicts.

    Ops get a global "id"; a zeta op's "from" is the id of its omega op.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    next_id = 0
    for r in range(rounds):
        ops = _shuffle_round(rng, _ROUNDS[workload](rng, r))
        for op in ops:
            op["id"] = next_id
            next_id += 1
        for op in ops:
            if "from" in op:
                op["from"] = op["from"]["id"]
        out.append(ops)
    return out
