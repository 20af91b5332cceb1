"""Per-layer tracing by wrapping gebra's public functions from outside.

install() replaces each traced function by a wrapper in every gebra module
that bound it (a name imported with "from .x import f" is a separate
binding), and each traced method on its class.  Wrapper kinds:

  span    counts calls, records (name, start, end, parent span, op id) and
          adds the span's self time: duration minus time in wrapped children
  count   counts calls only; used for the hot methods
  add     LinComb.__add__: counted and timed, no span record; its time
          still counts as a wrapped child of the enclosing span
  gen     counts calls and yielded items of a generator function

Spans stay in memory until write_spans() at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

_perf = time.perf_counter

# (module, attribute path, wrapper kind, metric stem)
TARGETS = (
    ("exactlin", "LinComb.__init__", "count", "exactlin.LinComb.inits"),
    ("exactlin", "LinComb.__add__", "add", "exactlin.LinComb"),
    ("exactlin", "format_terms", "span", "exactlin.format_terms"),
    ("words", "block_decompositions", "gen", "words.block_decompositions"),
    ("words", "cofree_lift", "span", "words.cofree_lift"),
    ("words", "structure_endo", "span", "words.structure_endo"),
    ("words", "concat_expand", "count", "words.concat_expand.calls"),
    ("words", "parse_word", "span", "words.parse_word"),
    ("binfty", "induced_product", "span", "binfty.induced_product"),
    ("binfty", "BInftyStructure.bracket", "count", "binfty.bracket.calls"),
    ("idem", "eulerian_idempotent", "span", "idem.eulerian_idempotent"),
    ("idem", "varpi", "span", "idem.varpi"),
    ("idem", "omega_tilde", "span", "idem.omega_tilde"),
    ("idem", "zeta_tilde", "span", "idem.zeta_tilde"),
    ("descent", "de_equal", "span", "descent.de_equal"),
    ("descent", "permutations_of", "gen", "descent.permutations_of"),
    ("descent", "internal_product", "span", "descent.internal_product"),
    ("descent", "convolution", "span", "descent.convolution"),
    ("descent", "desc_coproduct", "span", "descent.desc_coproduct"),
    ("descent", "solomon_log_oracle", "span", "descent.solomon_log_oracle"),
    ("descent", "lie_projection_check", "span", "descent.lie_projection_check"),
    ("topo", "QuasiOrderClass.__init__", "span", "topo.QuasiOrderClass"),
    ("topo", "set_partitions", "gen", "topo.set_partitions"),
    ("topo", "canonicalize", "count", "topo.canonicalize.calls"),
    ("topo", "coproduct_delta", "span", "topo.coproduct_delta"),
    ("topo", "eulerian_e", "span", "topo.eulerian_e"),
    ("topo", "inf_pi", "span", "topo.inf_pi"),
    ("topo", "upsilon", "span", "topo.upsilon"),
    ("topo", "lambda_char", "span", "topo.lambda_char"),
    ("topo", "parse_topology", "span", "topo.parse_topology"),
    ("cli", "build_parser", "span", "cli.build_parser"),
    ("cli", "main", "span", "cli.main"),
)

_KEYS = {
    "span": (".calls", ".self_s"),
    "count": ("",),
    "add": (".adds", ".add_self_s"),
    "gen": (".calls", ".yielded", ".yielded_under_delta"),
}
# Extra counts taken by hooks, beyond what the wrapper kinds give.
_EXTRA_KEYS = (
    "topo.QuasiOrderClass.memo_hits",
    "topo.QuasiOrderClass.relabelings",
    "topo.canonicalize.calls_under_delta",
    "descent.internal_product.pairs",
    "cli.import_s",  # set by cliwrap.py, which times the import
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, op id)
        self.stack = []  # open spans: [start, seconds in wrapped children, span index]
        self.values = {stem + k: 0 for _, _, kind, stem in TARGETS for k in _KEYS[kind]}
        self.values.update(dict.fromkeys(_EXTRA_KEYS, 0))
        self.op_id = -1
        self.delta_depth = 0  # > 0 while coproduct_delta runs
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tr, values = self, self.values
        calls_key, self_key = name + ".calls", name + ".self_s"
        before = {
            "topo.QuasiOrderClass": self._before_class,
            "descent.internal_product": self._before_internal,
        }.get(name)
        is_delta = name == "topo.coproduct_delta"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls_key] += 1
            if before is not None:
                before(args)
            stack = tr.stack
            parent = stack[-1][2] if stack else -1
            index = len(tr.spans)
            tr.spans.append(None)
            frame = [_perf(), 0.0, index]
            stack.append(frame)
            tr.delta_depth += is_delta
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                tr.delta_depth -= is_delta
                stack.pop()
                dur = end - frame[0]
                values[self_key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tr.spans[index] = (name, frame[0], end, parent, tr.op_id)

        return wrapper

    def _counter(self, key, fn):
        tr, values = self, self.values
        under_key = key + "_under_delta" if key == "topo.canonicalize.calls" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[key] += 1
            if under_key and tr.delta_depth:
                values[under_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, stem, fn):
        tr, values = self, self.values
        count_key, time_key = stem + ".adds", stem + ".add_self_s"

        @functools.wraps(fn)
        def wrapper(a, b):
            values[count_key] += 1
            t0 = _perf()
            out = fn(a, b)
            dur = _perf() - t0
            values[time_key] += dur
            if tr.stack:
                tr.stack[-1][1] += dur
            return out

        return wrapper

    def _gen(self, stem, fn):
        tr, values = self, self.values
        calls_key, yield_key = stem + ".calls", stem + ".yielded"
        under_key = stem + ".yielded_under_delta"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls_key] += 1
            for item in fn(*args, **kwargs):
                values[yield_key] += 1
                if tr.delta_depth:
                    values[under_key] += 1
                yield item

        return wrapper

    def _before_class(self, args):
        topo = sys.modules["gebra.topo"]
        q = args[1]
        if q.n > topo.CANON_BOUND:
            return
        if (q.n, tuple(q.rows)) in getattr(topo, "_CANON_MEMO", {}):
            self.values["topo.QuasiOrderClass.memo_hits"] += 1
        else:
            self.values["topo.QuasiOrderClass.relabelings"] += math.factorial(q.n)

    def _before_internal(self, args):
        g, h = args
        self.values["descent.internal_product.pairs"] += len(g.terms) * len(h.terms)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every target in every loaded gebra module."""
        import gebra.cli  # noqa: F401  (imports every layer)

        makers = {"span": self._span, "count": self._counter, "add": self._add, "gen": self._gen}
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "gebra" or name.startswith("gebra.")) and m is not None]
        for mod_name, path, kind, stem in TARGETS:
            owner = sys.modules["gebra." + mod_name]
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = makers[kind](stem, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- ops and results -------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack.append([_perf(), 0.0, len(self.spans)])
        self.spans.append(None)

    def end_op(self):
        frame = self.stack.pop()
        self.spans[frame[2]] = ("op", frame[0], _perf(), -1, self.op_id)

    def summary(self, structures=()):
        """Counts and self times, plus memo sizes read at the end of the run."""
        topo = sys.modules["gebra.topo"]
        out = dict(self.values)
        out["binfty.prod_memo.entries"] = sum(len(getattr(B, "_prod_memo", ())) for B in structures)
        out["topo.memo.entries"] = sum(
            len(v) for k, v in vars(topo).items() if k.endswith("_MEMO") and isinstance(v, dict)
        )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
