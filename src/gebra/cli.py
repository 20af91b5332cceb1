"""Command line front end.

Every computation the library offers is reachable as a subcommand with
deterministic output: rationals print reduced as "p/q", term lists are
sorted canonically, and --json switches any element output to
{"terms": [{"coeff": "p/q", "basis": ...}]}.

Exit codes: 0 on success, 2 on malformed input, 3 on a size-bound
violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .binfty import (
    MODE_NAMES,
    QUASI_SHUFFLE,
    BInftyStructure,
    check_axioms,
    induced_product,
    parse_bracket_file,
)
from .exactlin import AlgebraError, InputError, SizeBoundError, format_terms
from .idem import (
    eulerian_idempotent,
    hoffman_exp,
    hoffman_log,
    omega_tilde,
    varpi,
    zeta_tilde,
)
from .words import IDENT, Alphabet, check_word_bound, parse_tensor, parse_word
from . import descent
from . import topo


# -- output helpers -----------------------------------------------------------


def _emit_elem(args, x, render=str):
    """Print a linear combination, text or JSON, terms in canonical order."""
    if args.json:
        terms = [{"coeff": str(c), "basis": render(k)} for k, c in x.items()]
        print(json.dumps({"terms": terms}))
    else:
        print(format_terms(x, render))


def _emit_scalar(args, value):
    if args.json:
        print(json.dumps({"terms": [{"coeff": str(value), "basis": "1"}]}))
    else:
        print(value)


def _emit_poly(args, p):
    if args.json:
        terms = []
        for k in sorted(p.coeffs, reverse=True):
            basis = "1" if k == 0 else ("X" if k == 1 else f"X^{k}")
            terms.append({"coeff": str(p.coeffs[k]), "basis": basis})
        print(json.dumps({"terms": terms}))
    else:
        print(p)


def _emit_report(args, report):
    if args.json:
        print(json.dumps(report))
    else:
        for key, val in report.items():
            print(f"{key}: {'pass' if val else 'fail'}")


# -- structure resolution -----------------------------------------------------


def _infer_alphabet(texts):
    names = set()
    for t in texts:
        for tok in re.split(r"[+*,\s]+", t):
            for part in tok.split("."):
                if IDENT.match(part):
                    names.add(part)
    if not names:
        raise InputError("cannot infer an alphabet; give --alphabet or --table")
    return Alphabet(sorted(names))


def _structure(args, texts):
    """Resolve the bracket structure from --table, --mode, --alphabet."""
    table = getattr(args, "table", None)
    mode = getattr(args, "mode", None)
    alphabet_spec = getattr(args, "alphabet", None)
    alphabet = Alphabet(alphabet_spec) if alphabet_spec else None
    if table:
        try:
            with open(table, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read table file {table}: {exc}") from None
        B = parse_bracket_file(text, alphabet)
        if mode and MODE_NAMES.get(mode) != B.mode:
            raise InputError(f"--mode {mode} contradicts the table file ({B.mode})")
        return B
    if mode in (None, "shuffle"):
        return BInftyStructure.shuffle(alphabet or _infer_alphabet(texts))
    raise InputError(f"mode {mode!r} needs --table")


# -- word-side commands -------------------------------------------------------


def cmd_shuffle(args):
    alphabet = Alphabet(args.alphabet) if args.alphabet else _infer_alphabet(
        [args.word, args.word2]
    )
    B = BInftyStructure.shuffle(alphabet)
    w = parse_word(args.word, alphabet)
    w2 = parse_word(args.word2, alphabet)
    check_word_bound(len(w) + len(w2))
    _emit_elem(args, induced_product(B, w, w2))


def cmd_qshuffle(args):
    B = _structure(args, [args.word, args.word2])
    if B.mode != QUASI_SHUFFLE:
        raise InputError("qshuffle needs a quasi_shuffle table (mode: qshuffle)")
    w = parse_word(args.word, B.alphabet)
    w2 = parse_word(args.word2, B.alphabet)
    check_word_bound(len(w) + len(w2))
    _emit_elem(args, induced_product(B, w, w2))


def cmd_binf_prod(args):
    B = _structure(args, [args.word, args.word2])
    w = parse_word(args.word, B.alphabet)
    w2 = parse_word(args.word2, B.alphabet)
    check_word_bound(len(w) + len(w2))
    _emit_elem(args, induced_product(B, w, w2))


def cmd_binf_check(args):
    B = _structure(args, [])
    _emit_report(args, check_axioms(B, args.budget))


def cmd_eulerian(args):
    B = _structure(args, [args.word])
    w = parse_word(args.word, B.alphabet)
    check_word_bound(len(w))
    _emit_elem(args, eulerian_idempotent(B, w))


def cmd_varpi(args):
    B = _structure(args, [args.word])
    w = parse_word(args.word, B.alphabet)
    check_word_bound(len(w))
    _emit_elem(args, varpi(B, w))


def cmd_hoffman(args):
    B = _structure(args, [args.word])
    w = parse_word(args.word, B.alphabet)
    fn = hoffman_log if args.which == "log" else hoffman_exp
    _emit_elem(args, fn(B, w))


def _bounded_tensor(args):
    B = _structure(args, [args.expr])
    x = parse_tensor(args.expr, B.alphabet)
    check_word_bound(max(map(len, x.terms), default=0))
    return B, x


def cmd_omega(args):
    B, x = _bounded_tensor(args)
    _emit_elem(args, omega_tilde(B, x))


def cmd_zeta(args):
    B, x = _bounded_tensor(args)
    _emit_elem(args, zeta_tilde(B, x))


# -- descent commands ---------------------------------------------------------


def _is_primitive_desc(d):
    return all(l == () or r == () for (l, r), _ in descent.desc_coproduct(d).items())


def cmd_desc(args):
    sub = args.desc_cmd
    if sub == "dynkin":
        _emit_elem(args, descent.dynkin(args.n).terms)
    elif sub == "solomon":
        _emit_elem(args, descent.solomon(args.n).terms)
    elif sub == "conv":
        g = descent.parse_group_alg(args.g)
        h = descent.parse_group_alg(args.h)
        _emit_elem(args, descent.convolution(g, h).terms)
    elif sub == "check":
        n = args.n
        sn = descent.solomon_desc(n)
        dn = descent.dynkin_desc(n)
        report = {
            "solomon_idempotent": sn.internal_product(sn) == sn,
            "solomon_primitive": _is_primitive_desc(sn),
            "solomon_matches_log_oracle": sn == descent.solomon_log_series(n),
            "dynkin_primitive": _is_primitive_desc(dn),
            "dynkin_quasi_idempotent": dn.internal_product(dn) == dn.scale(n),
        }
        if n <= descent.LIE_CHECK_BOUND:
            report["solomon_lie_valued"] = descent.lie_projection_check(sn.expand())
            report["dynkin_lie_valued"] = descent.lie_projection_check(dn.expand())
        _emit_report(args, report)


# -- topology commands --------------------------------------------------------


def cmd_topo(args):
    sub = args.topo_cmd
    if sub in ("ladder", "corolla"):
        tc = topo.ladder(args.n) if sub == "ladder" else topo.corolla(args.n)
        name = topo.topo_name(tc)
        if args.json:
            out = {"terms": [{"coeff": "1", "basis": tc.q.to_text()}], "name": name}
            print(json.dumps(out))
        else:
            text = tc.q.to_text()
            print(f"{text} ({name})" if name else text)
        return
    tc = topo.as_class(args.topology)
    if sub == "delta":
        _emit_elem(args, topo.coproduct_Delta(tc), render=topo.render_basis)
    elif sub == "delta2":
        _emit_elem(args, topo.coproduct_delta(tc), render=topo.render_basis)
    elif sub == "pi":
        _emit_elem(args, topo.inf_pi(tc), render=topo.render_basis)
    elif sub == "upsilon":
        _emit_poly(args, topo.upsilon(tc))
    elif sub == "lambda":
        _emit_scalar(args, topo.lambda_char(tc))
    elif sub == "eulerian":
        _emit_elem(args, topo.eulerian_e(tc), render=topo.render_basis)
    elif sub == "pieul":
        _emit_elem(args, topo.canonical_pi_idem(tc), render=topo.render_basis)


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gebra",
        description="Exact algebra on words, descents, and finite topologies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON term schema")
    tbl = argparse.ArgumentParser(add_help=False)
    tbl.add_argument("--table", metavar="FILE", help="bracket table file")
    tbl.add_argument("--mode", choices=sorted(MODE_NAMES), help="structure mode when no table is given")
    tbl.add_argument("--alphabet", metavar="SPEC", help='letters, e.g. "a,b" or "a:1,b:2"')

    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    sp = sub.add_parser("shuffle", parents=[common], help="shuffle product of two words")
    sp.add_argument("--alphabet", metavar="SPEC")
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_shuffle)

    sp = sub.add_parser("qshuffle", parents=[common, tbl], help="quasi-shuffle product of two words")
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_qshuffle)

    binf = sub.add_parser("binf", help="general bracket-induced operations")
    bsub = binf.add_subparsers(dest="binf_cmd", required=True, metavar="SUBCOMMAND")
    sp = bsub.add_parser("prod", parents=[common, tbl], help="induced product of two words")
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_binf_prod)
    sp = bsub.add_parser("check", parents=[common, tbl], help="bounded axiom report")
    sp.add_argument("--budget", type=int, default=3, help="total length budget (default 3)")
    sp.set_defaults(func=cmd_binf_check)

    sp = sub.add_parser("eulerian", parents=[common, tbl], help="Eulerian idempotent of a word")
    sp.add_argument("word")
    sp.set_defaults(func=cmd_eulerian)

    sp = sub.add_parser("varpi", parents=[common, tbl], help="letter part of the Eulerian idempotent")
    sp.add_argument("word")
    sp.set_defaults(func=cmd_varpi)

    sp = sub.add_parser("hoffman", parents=[common, tbl], help="quasi-shuffle closed forms")
    sp.add_argument("which", choices=("log", "exp"))
    sp.add_argument("word")
    sp.set_defaults(func=cmd_hoffman)

    sp = sub.add_parser("omega", parents=[common, tbl], help="isomorphism onto the shuffle algebra")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_omega)

    sp = sub.add_parser("zeta", parents=[common, tbl], help="inverse isomorphism from the shuffle algebra")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_zeta)

    desc = sub.add_parser("desc", help="descent algebra of the symmetric groups")
    dsub = desc.add_subparsers(dest="desc_cmd", required=True, metavar="SUBCOMMAND")
    sp = dsub.add_parser("dynkin", parents=[common], help="iterated-bracket element")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("solomon", parents=[common], help="canonical Lie idempotent")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("conv", parents=[common], help="convolution of two group algebra elements")
    sp.add_argument("g")
    sp.add_argument("h")
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("check", parents=[common], help="descent identity report")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_desc)

    tp = sub.add_parser("topo", help="finite topologies")
    tsub = tp.add_subparsers(dest="topo_cmd", required=True, metavar="SUBCOMMAND")
    for name, help_text in (
        ("delta", "open-set coproduct"),
        ("delta2", "contraction-restriction coproduct"),
        ("pi", "projector onto primitives"),
        ("upsilon", "surjection polynomial"),
        ("lambda", "lambda character"),
        ("eulerian", "Eulerian idempotent"),
        ("pieul", "pi composed with the Eulerian idempotent"),
    ):
        sp = tsub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("topology", help='e.g. "3; 1<3, 2<3"')
        sp.set_defaults(func=cmd_topo)
    for name, help_text in (("ladder", "the n-chain"), ("corolla", "the n-fan")):
        sp = tsub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("n", type=int)
        sp.set_defaults(func=cmd_topo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SizeBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
