"""Command line front end.

Every computation the library offers is reachable as a subcommand with
deterministic output: rationals print reduced as "p/q", term lists are
sorted canonically, and --json switches any element output to
{"terms": [{"coeff": "p/q", "basis": ...}]}.  Each command returns its
result; main renders it through _render, the one output format, and writes
it with one print.

Exit codes: 0 on success, 1 when stdout is closed or its reader has gone
(nothing is written to stderr), 2 on malformed input, 3 on a size-bound
violation.

Integer arguments are read by exactlin.parse_ints; without --alphabet or
--table, words.infer_alphabet finds the letters, as for table files.

A process executes only the layers its command uses.  words, binfty,
idem, descent and topo are registered in sys.modules through
importlib.util.LazyLoader, so each module body runs on its first
attribute access, and the commands reach them as module attributes
(descent.dynkin, words.parse_word, never a name imported from them).
build_parser registers every command with its help text but builds the
arguments and subcommands of the invoked one only; a `desc` process thus
runs exactlin, descent and cli, a `topo` process exactlin, topo and cli,
and neither reads binfty's mode table.  json is imported only to write
--json output.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from .exactlin import (
    AlgebraError, Fraction, InputError, LinComb, Poly, SizeBoundError, format_terms, parse_ints,
)


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


words = _lazy_layer("words")
binfty = _lazy_layer("binfty")
idem = _lazy_layer("idem")
descent = _lazy_layer("descent")
topo = _lazy_layer("topo")


# -- output -------------------------------------------------------------------


def _render(out, args):
    """The output of every command: its result out as text, or as JSON with --json.

    out is a pass/fail report (a dict), a Poly, a LinComb (the keys of a topo
    command print through topo.render_basis), a scalar, or the one class of
    topo ladder|corolla, which prints with its short name.  Only the JSON
    outputs import json.
    """
    named = {}
    if isinstance(out, dict):
        if not args.json:
            return "\n".join(f"{key}: {'pass' if ok else 'fail'}" for key, ok in out.items())
    elif isinstance(out, Poly):
        if not args.json:
            return str(out)
        terms = out.listing()
    elif isinstance(out, LinComb):
        render = topo.render_basis if args.cmd == "topo" else str
        if not args.json:
            return format_terms(out, render)
        terms = [(render(k), c) for k, c in out.items()]
    elif isinstance(out, Fraction):
        if not args.json:
            return str(out)
        terms = [("1", out)]
    else:
        text, name = str(out), topo.topo_name(out)
        if not args.json:
            return f"{text} ({name})" if name else text
        terms, named = [(text, 1)], {"name": name}
    import json

    return json.dumps(out if isinstance(out, dict) else
                      {"terms": [{"coeff": str(c), "basis": basis} for basis, c in terms], **named})


# -- structure resolution -----------------------------------------------------


def _structure(args, texts):
    """Resolve the bracket structure from --table, --mode, --alphabet."""
    table = getattr(args, "table", None)
    mode = getattr(args, "mode", None)
    alphabet_spec = getattr(args, "alphabet", None)
    alphabet = words.Alphabet(alphabet_spec) if alphabet_spec else None
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
    return binfty.BInftyStructure.shuffle(alphabet or words.infer_alphabet(texts))


# -- word-side commands -------------------------------------------------------


def cmd_product(args):
    """The induced product of the words args.word and args.word2: binf prod,
    qshuffle, and shuffle, whose parser has no --table or --mode."""
    B = _structure(args, [args.word, args.word2])
    if args.cmd == "qshuffle" and B.mode != binfty.QUASI_SHUFFLE:
        raise InputError("qshuffle needs a quasi_shuffle table (mode: qshuffle)")
    w, w2 = (words.parse_word(text, B.alphabet) for text in (args.word, args.word2))
    return binfty.induced_product(B, w, w2)


def cmd_hoffman(args):
    B = _structure(args, [args.word])
    fn = idem.hoffman_log if args.which == "log" else idem.hoffman_exp
    return fn(B, words.parse_word(args.word, B.alphabet))


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


def _word_command(op, positional):
    """Builder of a word command: --json, the structure options, then one
    positional, a word ("word") or a tensor ("expr"), read over the
    alphabet of the structure B; the result is idem.<op>(B, value)."""

    def run(args):
        text = getattr(args, positional)
        B = _structure(args, [text])
        read = words.parse_word if positional == "word" else words.parse_tensor
        return getattr(idem, op)(B, read(text, B.alphabet))

    def build(sub, name, help_text):
        sp = sub.add_parser(name, parents=_table_parents(), help=help_text)
        sp.add_argument(positional)
        sp.set_defaults(func=run)
    return build


def _build_product(sub, name, help_text):
    if name == "shuffle":
        sp = sub.add_parser(name, parents=_json_parents(), help=help_text)
        sp.add_argument("--alphabet", metavar="SPEC")
    else:
        sp = sub.add_parser(name, parents=_table_parents(), help=help_text)
    sp.add_argument("word")
    sp.add_argument("word2")
    sp.set_defaults(func=cmd_product)


def _build_hoffman(sub, name, help_text):
    sp = sub.add_parser(name, parents=_table_parents(), help=help_text)
    sp.add_argument("which", choices=("log", "exp"))
    sp.add_argument("word")
    sp.set_defaults(func=cmd_hoffman)


def _build_binf(sub, name, help_text):
    bsub = sub.add_parser(name, help=help_text).add_subparsers(required=True, metavar="SUBCOMMAND")
    _build_product(bsub, "prod", "induced product of two words")
    sp = bsub.add_parser("check", parents=_table_parents(), help="bounded axiom report")
    sp.add_argument("--budget", type=integer, default=3, help="total length budget (default 3)")
    sp.set_defaults(func=lambda args: binfty.check_axioms(_structure(args, []), args.budget))


def _build_desc(sub, name, help_text):
    dsub = sub.add_parser(name, help=help_text).add_subparsers(required=True, metavar="SUBCOMMAND")
    parents = _json_parents()
    for name, help_text in (("dynkin", "iterated-bracket element"), ("solomon", "canonical Lie idempotent")):
        sp = dsub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("n", type=integer)
        sp.set_defaults(func=lambda args, op=name: getattr(descent, op)(args.n).terms)
    sp = dsub.add_parser("conv", parents=parents, help="convolution of two group algebra elements")
    sp.add_argument("g")
    sp.add_argument("h")
    sp.set_defaults(func=lambda args: descent.convolution(
        descent.parse_group_alg(args.g), descent.parse_group_alg(args.h)).terms)
    sp = dsub.add_parser("check", parents=parents, help="descent identity report")
    sp.add_argument("n", type=integer)
    sp.set_defaults(func=lambda args: descent.identity_report(args.n))


def _build_topo(sub, name, help_text):
    tsub = sub.add_parser(name, help=help_text).add_subparsers(required=True, metavar="SUBCOMMAND")
    parents = _json_parents()
    for name, op, help_text in (
        ("delta", "coproduct_Delta", "open-set coproduct"),
        ("delta2", "coproduct_delta", "contraction-restriction coproduct"),
        ("pi", "inf_pi", "projector onto primitives"),
        ("upsilon", "upsilon", "surjection polynomial"),
        ("lambda", "lambda_char", "lambda character"),
        ("eulerian", "eulerian_e", "Eulerian idempotent"),
        ("pieul", "canonical_pi_idem", "pi composed with the Eulerian idempotent"),
    ):
        sp = tsub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("topology", help='e.g. "3; 1<3, 2<3"')
        sp.set_defaults(func=lambda args, op=op: getattr(topo, op)(topo.as_class(args.topology)))
    for name, help_text in (("ladder", "the n-chain"), ("corolla", "the n-fan")):
        sp = tsub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("n", type=integer)
        sp.set_defaults(func=lambda args, op=name: getattr(topo, op)(args.n))


# name -> (help text, builder of its parser)
_COMMANDS = {
    "shuffle": ("shuffle product of two words", _build_product),
    "qshuffle": ("quasi-shuffle product of two words", _build_product),
    "binf": ("general bracket-induced operations", _build_binf),
    "eulerian": ("Eulerian idempotent of a word", _word_command("eulerian_idempotent", "word")),
    "varpi": ("letter part of the Eulerian idempotent", _word_command("varpi", "word")),
    "hoffman": ("quasi-shuffle closed forms", _build_hoffman),
    "omega": ("isomorphism onto the shuffle algebra", _word_command("omega_tilde", "expr")),
    "zeta": ("inverse isomorphism from the shuffle algebra", _word_command("zeta_tilde", "expr")),
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
    args = build_parser(argv).parse_args(argv)
    try:
        text = _render(args.func(args), args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeBoundError) else 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Python flushes stdout again at exit; point it
        # at devnull so that this flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError:
        if not sys.stdout.closed:
            raise
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
