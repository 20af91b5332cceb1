"""Correctness gate, run in its own process after the timed phase.

Reads {"workload", "ops", "results", "structures"} as JSON on stdin and writes
{"failures": [[op id, reason], ...], "golden_cases": n,
"golden_failures": [name, ...]} on stdout.  Every op's rendered output is
parsed back and compared with a route that the op itself did not take;
the golden values of acceptance criteria 1-4 and 6 are checked once.
The process starts with cold memos, so checking cannot warm the timed run.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from gebra import binfty, descent, idem, topo, words
from gebra.exactlin import LinComb, Poly


def _letter_part(x):
    return LinComb({w: c for w, c in x.terms.items() if len(w) == 1})


# -- words --------------------------------------------------------------------


class WordsChecker:
    def __init__(self, structures):
        self.structures = {n: binfty.parse_bracket_file(t) for n, t in structures.items()}

    @staticmethod
    def key(op):
        return (op["structure"], op["kind"], op.get("word"), op.get("word2"), op.get("check_word"))

    def __call__(self, op, out):
        B = self.structures[op["structure"]]
        kind = op["kind"]
        got = words.parse_tensor(out, B.alphabet)
        if kind == "prod":
            w = words.parse_word(op["word"], B.alphabet)
            w2 = words.parse_word(op["word2"], B.alphabet)
            want = binfty.surjection_product_oracle(B, w, w2)
            return None if got == want else "induced_product != surjection_product_oracle"
        if kind == "omega":
            return None  # checked by the zeta op that reads this output
        if kind == "zeta":
            want = LinComb.single(words.parse_word(op["check_word"], B.alphabet))
            return None if got == want else "zeta_tilde(omega_tilde(w)) != w"
        w = words.parse_word(op["word"], B.alphabet)
        if kind == "eulerian":
            ok = _letter_part(got) == idem.varpi(B, w)
            return None if ok else "letter part of eulerian_idempotent != varpi"
        if kind == "varpi":
            if B.mode == binfty.QUASI_SHUFFLE:
                return None if got == idem.hoffman_log(B, w) else "varpi != hoffman_log"
            if B.mode == binfty.SHUFFLE:
                # The shuffle bracket is zero: varpi keeps letters, kills longer words.
                want = LinComb.single(w) if len(w) == 1 else LinComb.zero()
                return None if got == want else "varpi != its shuffle closed form"
            ok = got == _letter_part(idem.eulerian_idempotent(B, w))
            return None if ok else "varpi != letter part of eulerian_idempotent"
        return f"unknown op kind {kind!r}"


# -- topo ---------------------------------------------------------------------

_NAMED = re.compile(r"(disc|l|c)(\d+)")
_ISO_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33}  # topologies up to homeomorphism (OEIS A001930)


def _topo_class(text):
    if text == "1":
        return topo.unit_class()
    if text.startswith("["):
        return topo.as_class(text[1:-1])
    m = _NAMED.fullmatch(text)
    if m is None:
        raise ValueError(f"unparseable isoclass {text!r}")
    fam = {"disc": topo.discrete, "l": topo.ladder, "c": topo.corolla}[m.group(1)]
    return fam(int(m.group(2)))


def _topo_parts(text):
    """format_terms output with topo.render_basis keys: (coeff, factor texts) per term."""
    if text == "0":
        return []
    parts = []
    for part in text.split(" + "):
        coeff, star, key = part.partition("*")
        if not star:
            coeff, key = "1", part
        parts.append((Fraction(coeff), key.split(" (x) ")))
    return parts


def _topo_terms(text):
    """The rendered element, parsed back into isoclasses."""
    out = LinComb.zero()
    for coeff, factors in _topo_parts(text):
        classes = tuple(_topo_class(f) for f in factors)
        out = out + LinComb.single(classes if len(classes) > 1 else classes[0], coeff)
    return out


def _is_equivalence(text):
    """Is the rendered isoclass discrete?  Read off without canonicalizing."""
    if text.startswith("["):
        return topo.parse_topology(text[1:-1]).is_equivalence()
    return text == "1" or text.startswith("disc")


def _open_count(q):
    """Up-closed vertex sets, counted by brute force."""
    return sum(
        all(q.rows[i] & ~m == 0 for i in range(q.n) if (m >> i) & 1)
        for m in range(1 << q.n)
    )


def _degree_profile(q):
    down = [sum((q.rows[j] >> i) & 1 for j in range(q.n)) for i in range(q.n)]
    return sorted((q.rows[i].bit_count(), down[i]) for i in range(q.n))


def _counit_sides(parts, counit):
    """(eps (x) id) and (id (x) eps) applied to a parsed coproduct, where eps
    is 1 on the rendered isoclasses that counit accepts and 0 elsewhere."""
    left = LinComb.zero()
    right = LinComb.zero()
    for coeff, (a, b) in parts:
        if counit(a):
            left = left + LinComb.single(_topo_class(b), coeff)
        if counit(b):
            right = right + LinComb.single(_topo_class(a), coeff)
    return left, right


class TopoChecker:
    @staticmethod
    def key(op):
        """Every topo op's output is a function of its kind and input isoclass.

        A relabeled ladder or corolla is keyed by the family it was drawn
        from, which spares the checker an n! canonicalization per op.
        """
        if op["kind"] == "iso":
            return ("iso", op["k"])
        if "check_family" in op:
            return (op["kind"], *op["check_family"])
        return (op["kind"], topo.as_class(op["topology"]).key)

    def __call__(self, op, out):
        return check_topo(op, out)


def check_topo(op, out):
    kind = op["kind"]
    if kind == "iso":
        got = _topo_terms(out)
        ok = len(got) == _ISO_COUNTS[op["k"]] and set(got.terms.values()) == {1}
        ok = ok and all(c.n == op["k"] for c in got.terms)
        return None if ok else "all_isoclasses count or sizes wrong"
    q = topo.parse_topology(op["topology"])
    tc = topo.as_class(op["topology"])
    if kind == "class":
        got = _topo_class(out)
        ok = got.n == q.n and _degree_profile(got.q) == _degree_profile(q)
        ok = ok and _open_count(got.q) == _open_count(q)
        ok = ok and topo.render_basis(topo.as_class(got.q.to_text())) == out
        return None if ok else "canonical form is not an invariant-preserving fixed point"
    if kind == "upsilon":
        want = str(topo.upsilon(tc, method="surjection_oracle"))
        return None if out == want else "upsilon recursive != surjection_oracle"
    if kind == "lambda":
        want = str(topo.lambda_char(tc, method="delta_series"))
        return None if out == want else "lambda by upsilon_integral != by delta_series"
    if kind in ("delta", "delta2"):
        # Delta's counit is 1 on the unit only, delta's on every discrete class.
        parts = _topo_parts(out)
        left, right = _counit_sides(parts, "1".__eq__ if kind == "delta" else _is_equivalence)
        ok = left == LinComb.single(tc) and right == LinComb.single(tc)
        if kind == "delta":
            ok = ok and sum(c for c, _ in parts) == _open_count(q)
        return None if ok else f"{kind} fails a counit identity or the open-set count"
    got = _topo_terms(out)
    if kind == "pi":
        return None if got == -topo.antipode(tc) else "inf_pi != -antipode"
    if kind == "eulerian":
        want = topo.eulerian_e(tc, method="direct")
        return None if got == want else "eulerian_e via_delta != direct"
    if kind == "pieul":
        want = -topo.antipode(topo.eulerian_e(tc, method="direct"))
        return None if got == want else "canonical_pi_idem != -antipode(e direct)"
    return f"unknown op kind {kind!r}"


# -- descent ------------------------------------------------------------------


def _group_alg(out):
    """Parse text or --json output of a group algebra element."""
    if out.startswith("{"):
        terms = {}
        for t in json.loads(out)["terms"]:
            terms[descent.parse_permutation(t["basis"])] = Fraction(t["coeff"])
        return {p.images: c for p, c in terms.items()}
    if out == "0":
        return {}
    return {p.images: c for p, c in descent.parse_group_alg(out).terms.items()}


def _bracketing(n):
    """[..[[x1,x2],x3]..,xn] expanded into words, keyed by letter sequence."""
    elt = {(1,): Fraction(1)}
    for a in range(2, n + 1):
        new = {}
        for word, c in elt.items():
            new[word + (a,)] = new.get(word + (a,), 0) + c
            new[(a,) + word] = new.get((a,) + word, 0) - c
        elt = {k: v for k, v in new.items() if v}
    return elt


class DescentChecker:
    def __init__(self):
        self.oracle = {}

    def __call__(self, op, res):
        kind = op["check_kind"]
        out = res["out"]
        if kind == "refused":
            ok = res["exit"] == 3 and out == "" and res["err"].startswith("error: size bound")
            return None if ok else "expected a size-bound refusal (exit 3)"
        if res["exit"] != 0 or res["err"]:
            return f"exit {res['exit']}: {res['err'][-200:]}"
        n = op.get("check_n")
        if kind == "solomon":
            if n not in self.oracle:
                self.oracle[n] = {p.images: c for p, c in descent.solomon_log_oracle(n).terms.items()}
            return None if _group_alg(out) == self.oracle[n] else "solomon != solomon_log_oracle"
        if kind == "dynkin":
            return None if _group_alg(out) == _bracketing(n) else "dynkin != left bracketing"
        if kind == "check":
            if out.startswith("{"):
                ok = all(json.loads(out).values())
            else:
                ok = bool(out) and all(line.endswith(": pass") for line in out.splitlines())
            return None if ok else "a descent identity failed"
        if kind == "conv":
            p, q = op["check_pq"]
            c, d = (Fraction(s) for s in op["check_cd"])
            want = descent.de_subset(p + q, descent.subset_from_composition((p, q)))
            want = {perm.images: c * d * v for perm, v in want.terms.items()}
            return None if _group_alg(out) == want else "conv != c*d*de_subset"
        return f"unknown op kind {kind!r}"


# -- golden values of acceptance criteria 1-4 and 6 ---------------------------


def _E(*pairs):
    out = LinComb.zero()
    for coeff, cls in pairs:
        out = out + LinComb.single(topo.as_class(cls), Fraction(coeff))
    return out


def golden_cases():
    """(name, thunk) pairs; each thunk returns True when the value matches."""
    D1, D2, D3 = topo.discrete(1), topo.discrete(2), topo.discrete(3)
    L2, L3, C3 = topo.ladder(2), topo.ladder(3), topo.corolla(3)
    C3H = topo.as_class("3; 1<3, 2<3")
    D1L2 = topo.as_class("3; 2<3")
    F = Fraction
    cases = []
    lam = [(D1, 1), (L2, F(-1, 2)), (C3, F(1, 6)), (C3H, F(1, 6)), (D2, 0), (D3, 0),
           (D1L2, 0), (topo.corolla(4), 0), (topo.ladder(4), F(-1, 4)),
           (topo.corolla(5), F(-1, 30)), (L3, F(1, 3))]
    for tc, want in lam:
        for method in ("upsilon_integral", "delta_series"):
            cases.append((f"c1 lambda {tc} {method}",
                          lambda tc=tc, m=method, w=want: topo.lambda_char(tc, method=m) == w))
    ups = [(D1, Poly.const(1)), (D2, Poly({1: 2, 0: 1})), (D3, Poly({2: 6, 1: 6, 0: 1})),
           (L2, Poly.x_power(1)), (C3, Poly({2: 2, 1: 1})), (C3H, Poly({2: 2, 1: 1})),
           (L3, Poly.x_power(2)), (D1L2, Poly({2: 3, 1: 2}))]
    ups += [(topo.ladder(n), Poly.x_power(n - 1)) for n in range(1, 7)]
    for tc, want in ups:
        for method in ("recursive", "surjection_oracle"):
            cases.append((f"c2 upsilon {tc} {method}",
                          lambda tc=tc, m=method, w=want: topo.upsilon(tc, method=m) == w))
    e = [(D1, _E((1, D1))), (L2, _E((1, L2), (F(-1, 2), D2))),
         (C3, _E((1, C3), (-1, D1L2), (F(1, 6), D3))),
         (C3H, _E((1, C3H), (-1, D1L2), (F(1, 6), D3))),
         (L3, _E((1, L3), (-1, D1L2), (F(1, 3), D3))), (D2, LinComb.zero())]
    pie_c3 = _E((F(1, 6), D3), (-1, D1L2), (F(1, 2), C3), (F(1, 2), C3H))
    pie = [(D1, _E((1, D1))), (L2, _E((1, L2), (F(-1, 2), D2))), (C3, pie_c3),
           (C3H, pie_c3), (L3, _E((F(1, 3), D3), (-1, D1L2), (1, L3))), (D2, LinComb.zero())]
    for tc, want in e:
        cases.append((f"c3 eulerian_e {tc}", lambda tc=tc, w=want: topo.eulerian_e(tc) == w))
    for tc, want in pie:
        cases.append((f"c3 canonical_pi_idem {tc}",
                      lambda tc=tc, w=want: topo.canonical_pi_idem(tc) == w))
    upto4 = [tc for k in range(1, 5) for tc in topo.all_isoclasses(k)]

    def e_routes_and_idempotence():
        for tc in upto4:
            x = topo.eulerian_e(tc, method="via_delta")
            if x != topo.eulerian_e(tc, method="direct") or topo.eulerian_e(x) != x:
                return False
        return True

    cases.append(("c3 eulerian_e via_delta == direct, idempotent, n <= 4", e_routes_and_idempotence))
    pi = [(D1, _E((1, D1))), (L2, LinComb.zero()), (C3, LinComb.zero()), (C3H, LinComb.zero()),
          (L3, LinComb.zero()), (D2, _E((1, D2), (-2, L2))),
          (D1L2, _E((1, D1L2), (-1, C3), (-1, C3H), (1, L3))),
          (D3, _E((1, D3), (-3, C3), (-3, C3H), (6, L3)))]
    for tc, want in pi:
        cases.append((f"c4 inf_pi {tc}", lambda tc=tc, w=want: topo.inf_pi(tc) == w))
    cases.append(("c4 -antipode == inf_pi, n <= 4",
                  lambda: all(-topo.antipode(tc) == topo.inf_pi(tc) for tc in upto4)))

    fl = binfty.parse_bracket_file("mode: explicit\nalphabet: a:1, b:2\nbound: 6\na , a -> 2*b\n")
    alph = fl.alphabet
    a = words.parse_word("a", alph)
    cases.append(("c6 flalg a*a", lambda: binfty.induced_product(fl, a, a)
                  == words.parse_tensor("2*b + 2*a.a", alph)))
    half = {(a, a): words.parse_tensor("b", alph)}

    def pw(w):
        if len(w) == 1:
            return LinComb.single(w)
        return half.get((w[:1], w[1:]), LinComb.zero()) if len(w) == 2 else LinComb.zero()

    for word, image in [("a", "a"), ("b", "b"), ("b.a", "b.a"), ("a.a", "a.a + b"),
                        ("a.b", "a.b"), ("a.a.a", "a.a.a + a.b + b.a"),
                        ("a.b.a.a.b", "a.b.b.b + a.b.a.a.b")]:
        cases.append((f"c6 dual basis {word}",
                      lambda w=word, i=image: words.structure_endo(pw, words.parse_tensor(w, alph))
                      == words.parse_tensor(i, alph)))
    return cases


def _verify_all(checker, ops, results):
    """Check every op; an input already verified must give the verified output."""
    failures = []
    verified = {}
    for op, res in zip(ops, results):
        if res["err"] is not None:
            if not (op.get("check_refused") and res["err"].startswith("SizeBoundError")):
                failures.append([op["id"], res["err"][-300:]])
            continue
        if op.get("check_refused"):
            failures.append([op["id"], "expected SizeBoundError"])
            continue
        try:
            key = checker.key(op)
            if key in verified:
                why = None if verified[key] == res["out"] else "output differs from an earlier op on the same input"
            else:
                why = checker(op, res["out"])
                if why is None:
                    verified[key] = res["out"]
        except Exception as exc:  # an unparseable output is a failed op
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures.append([op["id"], why])
    return failures


def main():
    job = json.load(sys.stdin)
    workload = job["workload"]
    if workload == "descent":
        checker = DescentChecker()
        failures = []
        for op, res in zip(job["ops"], job["results"]):
            try:
                why = checker(op, res)
            except Exception as exc:  # an unparseable output is a failed op
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                failures.append([op["id"], why])
    else:
        checker = WordsChecker(job["structures"]) if workload == "words" else TopoChecker()
        failures = _verify_all(checker, job["ops"], job["results"])
    golden_failures = []
    cases = golden_cases()
    for name, thunk in cases:
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failed golden case
            ok = False
            name += f" raised {type(exc).__name__}: {exc}"
        if not ok:
            golden_failures.append(name)
    json.dump({"failures": failures, "golden_cases": len(cases),
               "golden_failures": golden_failures}, sys.stdout)


if __name__ == "__main__":
    main()
