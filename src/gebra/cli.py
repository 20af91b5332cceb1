"""Command line front end.

Every computation the library offers is reachable as a subcommand with
deterministic output: rationals print reduced as "p/q", term lists are
sorted canonically, and --json switches any element output to
{"terms": [{"coeff": "p/q", "basis": ...}]}.

Exit codes: 0 on success, 2 on malformed input, 3 on a size-bound
violation.

Integer arguments are read by exactlin.parse_ints; without --alphabet or
--table, words.infer_alphabet finds the letters, as for table files.

A process executes only the layers its command uses.  binfty, idem,
descent and topo are registered in sys.modules through
importlib.util.LazyLoader, so each module body runs on its first
attribute access, and the commands reach them as module attributes
(descent.dynkin, never a name imported from them).  build_parser
registers every command with its help text but builds the arguments and
subcommands of the invoked one only; a `desc` process thus runs exactlin,
words, descent and cli, and never reads binfty's mode table.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from .exactlin import AlgebraError, InputError, SizeBoundError, format_terms, parse_ints
from .words import Alphabet, infer_alphabet, parse_tensor, parse_word


def _lazy_layer(name):
    """The module gebra.<name>, in sys.modules at once but executed on first attribute access.

    A layer imported before gebra.cli is returned as it is, so that every
    importer shares one module and its classes.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


binfty = _lazy_layer("binfty")
idem = _lazy_layer("idem")
descent = _lazy_layer("descent")
topo = _lazy_layer("topo")


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
        B = binfty.parse_bracket_file(text, alphabet)
        if mode and binfty.MODE_NAMES[mode][0] != B.mode:
            raise InputError(f"--mode {mode} contradicts the table file ({B.mode})")
        return B
    if mode and binfty.MODE_NAMES[mode][0] != binfty.SHUFFLE:
        raise InputError(f"mode {mode!r} needs --table")
    return binfty.BInftyStructure.shuffle(alphabet or infer_alphabet(texts))


# -- word-side commands -------------------------------------------------------


def _emit_product(args, B):
    """The induced product of the words args.word and args.word2 under B."""
    w = parse_word(args.word, B.alphabet)
    w2 = parse_word(args.word2, B.alphabet)
    _emit_elem(args, binfty.induced_product(B, w, w2))


def cmd_binf_prod(args):
    """binf prod, and shuffle, whose parser has no --table or --mode."""
    _emit_product(args, _structure(args, [args.word, args.word2]))


def cmd_qshuffle(args):
    B = _structure(args, [args.word, args.word2])
    if B.mode != binfty.QUASI_SHUFFLE:
        raise InputError("qshuffle needs a quasi_shuffle table (mode: qshuffle)")
    _emit_product(args, B)


def cmd_binf_check(args):
    B = _structure(args, [])
    _emit_report(args, binfty.check_axioms(B, args.budget))


def cmd_eulerian(args):
    B = _structure(args, [args.word])
    _emit_elem(args, idem.eulerian_idempotent(B, parse_word(args.word, B.alphabet)))


def cmd_varpi(args):
    B = _structure(args, [args.word])
    _emit_elem(args, idem.varpi(B, parse_word(args.word, B.alphabet)))


def cmd_hoffman(args):
    B = _structure(args, [args.word])
    fn = idem.hoffman_log if args.which == "log" else idem.hoffman_exp
    _emit_elem(args, fn(B, parse_word(args.word, B.alphabet)))


def cmd_omega(args):
    B = _structure(args, [args.expr])
    _emit_elem(args, idem.omega_tilde(B, parse_tensor(args.expr, B.alphabet)))


def cmd_zeta(args):
    B = _structure(args, [args.expr])
    _emit_elem(args, idem.zeta_tilde(B, parse_tensor(args.expr, B.alphabet)))


# -- descent commands ---------------------------------------------------------


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
        _emit_report(args, descent.identity_report(args.n))


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


def integer(text):
    """An integer argument; argparse names this function in its error."""
    return parse_ints([text])[0]


def _json_parents():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON term schema")
    return [common]


def _table_parents():
    tbl = argparse.ArgumentParser(add_help=False)
    tbl.add_argument("--table", metavar="FILE", help="bracket table file")
    tbl.add_argument("--mode", choices=sorted(binfty.MODE_NAMES), help="structure mode when no table is given")
    tbl.add_argument("--alphabet", metavar="SPEC", help='letters, e.g. "a,b" or "a:1,b:2"')
    return _json_parents() + [tbl]


def _word_command(func, *positionals):
    """Builder of a word-side command: --json, the structure options, then the positionals."""
    def build(sub, name, help_text):
        sp = sub.add_parser(name, parents=_table_parents(), help=help_text)
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(func=func)
    return build


def _build_shuffle(sub, name, help_text):
    sp = sub.add_parser(name, parents=_json_parents(), help=help_text)
    sp.add_argument("--alphabet", metavar="SPEC")
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_binf_prod)


def _build_hoffman(sub, name, help_text):
    sp = sub.add_parser(name, parents=_table_parents(), help=help_text)
    sp.add_argument("which", choices=("log", "exp"))
    sp.add_argument("word")
    sp.set_defaults(func=cmd_hoffman)


def _build_binf(sub, name, help_text):
    bsub = sub.add_parser(name, help=help_text).add_subparsers(
        dest="binf_cmd", required=True, metavar="SUBCOMMAND"
    )
    parents = _table_parents()
    sp = bsub.add_parser("prod", parents=parents, help="induced product of two words")
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_binf_prod)
    sp = bsub.add_parser("check", parents=parents, help="bounded axiom report")
    sp.add_argument("--budget", type=integer, default=3, help="total length budget (default 3)")
    sp.set_defaults(func=cmd_binf_check)


def _build_desc(sub, name, help_text):
    dsub = sub.add_parser(name, help=help_text).add_subparsers(
        dest="desc_cmd", required=True, metavar="SUBCOMMAND"
    )
    parents = _json_parents()
    sp = dsub.add_parser("dynkin", parents=parents, help="iterated-bracket element")
    sp.add_argument("n", type=integer)
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("solomon", parents=parents, help="canonical Lie idempotent")
    sp.add_argument("n", type=integer)
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("conv", parents=parents, help="convolution of two group algebra elements")
    sp.add_argument("g")
    sp.add_argument("h")
    sp.set_defaults(func=cmd_desc)
    sp = dsub.add_parser("check", parents=parents, help="descent identity report")
    sp.add_argument("n", type=integer)
    sp.set_defaults(func=cmd_desc)


def _build_topo(sub, name, help_text):
    tsub = sub.add_parser(name, help=help_text).add_subparsers(
        dest="topo_cmd", required=True, metavar="SUBCOMMAND"
    )
    parents = _json_parents()
    for name, help_text in (
        ("delta", "open-set coproduct"),
        ("delta2", "contraction-restriction coproduct"),
        ("pi", "projector onto primitives"),
        ("upsilon", "surjection polynomial"),
        ("lambda", "lambda character"),
        ("eulerian", "Eulerian idempotent"),
        ("pieul", "pi composed with the Eulerian idempotent"),
    ):
        sp = tsub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("topology", help='e.g. "3; 1<3, 2<3"')
        sp.set_defaults(func=cmd_topo)
    for name, help_text in (("ladder", "the n-chain"), ("corolla", "the n-fan")):
        sp = tsub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("n", type=integer)
        sp.set_defaults(func=cmd_topo)


# name -> (help text, builder of its parser)
_COMMANDS = {
    "shuffle": ("shuffle product of two words", _build_shuffle),
    "qshuffle": ("quasi-shuffle product of two words", _word_command(cmd_qshuffle, "word", "word2")),
    "binf": ("general bracket-induced operations", _build_binf),
    "eulerian": ("Eulerian idempotent of a word", _word_command(cmd_eulerian, "word")),
    "varpi": ("letter part of the Eulerian idempotent", _word_command(cmd_varpi, "word")),
    "hoffman": ("quasi-shuffle closed forms", _build_hoffman),
    "omega": ("isomorphism onto the shuffle algebra", _word_command(cmd_omega, "expr")),
    "zeta": ("inverse isomorphism from the shuffle algebra", _word_command(cmd_zeta, "expr")),
    "desc": ("descent algebra of the symmetric groups", _build_desc),
    "topo": ("finite topologies", _build_topo),
}


def build_parser(argv=None):
    """The parser for argv (sys.argv[1:] when None).

    Every command is registered with its help text, but only the invoked
    one, the first word of argv that names a command, gets its arguments
    and subcommands.  No command name starts with "-", so argparse reads
    that word as a positional; if argparse descends into a command at all,
    it is this one.
    """
    argv = sys.argv[1:] if argv is None else argv
    invoked = next((a for a in argv if a in _COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog="gebra",
        description="Exact algebra on words, descents, and finite topologies.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    for name, (help_text, build) in _COMMANDS.items():
        if name == invoked:
            build(sub, name, help_text)
        else:
            sub.add_parser(name, help=help_text)
    return parser


def main(argv=None):
    parser = build_parser(argv)
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
