"""Long-lived library session for the words and topo workloads.

Protocol (one JSON object per line): the parent writes a setup line
{"workload": ..., "structures": {...}, "trace": bool}; the worker imports
gebra, builds the structures, installs the tracer if asked, and answers
{"ready": true}.  Then each line the parent writes is one of
{"exit": true}, {"summary": true, "spans_path": path} (the tracer's
per-layer values; spans go to the path), or a job {"rounds": [[op, ...],
...], "warmup_rounds": k, "seconds": s or null}, answered by one result
line.  Outputs persist across jobs, so a zeta op can read an omega output
from an earlier job.

Each op is parsed, computed and rendered inside its timing, as the CLI
would.  The first k rounds warm the memos up and are marked "warm"; the
clock of the timed phase starts after them.  Ops then run until "seconds"
have passed, or to the end of the rounds when "seconds" is null.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
import traceback

from gebra import binfty, exactlin, idem, topo, words
from gebra.exactlin import AlgebraError

# Functions are looked up on their modules at call time, so that a traced
# run sees the wrappers the tracer installs there.


def _words_op(op, built, outputs):
    B = built[op["structure"]]
    kind = op["kind"]
    if kind == "prod":
        w = words.parse_word(op["word"], B.alphabet)
        w2 = words.parse_word(op["word2"], B.alphabet)
        x = binfty.induced_product(B, w, w2)
    elif kind == "eulerian":
        x = idem.eulerian_idempotent(B, words.parse_word(op["word"], B.alphabet))
    elif kind == "varpi":
        x = idem.varpi(B, words.parse_word(op["word"], B.alphabet))
    elif kind == "omega":
        x = idem.omega_tilde(B, words.parse_tensor(op["word"], B.alphabet))
    elif kind == "zeta":
        x = idem.zeta_tilde(B, words.parse_tensor(outputs[op["from"]], B.alphabet))
    else:
        raise ValueError(f"unknown words op {kind!r}")
    return exactlin.format_terms(x)


def _topo_op(op, built, outputs):
    kind = op["kind"]
    if kind == "iso":
        classes = exactlin.LinComb(dict.fromkeys(topo.all_isoclasses(op["k"]), 1))
        return exactlin.format_terms(classes, render=topo.render_basis)
    tc = topo.as_class(op["topology"])
    if kind == "class":
        return topo.render_basis(tc)
    if kind == "upsilon":
        return str(topo.upsilon(tc))
    if kind == "lambda":
        return str(topo.lambda_char(tc))
    fn = {
        "delta": topo.coproduct_Delta,
        "delta2": topo.coproduct_delta,
        "pi": topo.inf_pi,
        "eulerian": topo.eulerian_e,
        "pieul": topo.canonical_pi_idem,
    }[kind]
    return exactlin.format_terms(fn(tc), render=topo.render_basis)


_RUNNERS = {"words": _words_op, "topo": _topo_op}


def _run(workload, built, job, tracer, outputs):
    run_op = _RUNNERS[workload]
    results = []
    warmup = sum(len(ops) for ops in job["rounds"][:job["warmup_rounds"]])
    t_start = time.perf_counter()
    for i, op in enumerate(itertools.chain.from_iterable(job["rounds"])):
        if i == warmup:
            t_start = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(op["id"])
        t0 = time.perf_counter()
        err = None
        try:
            out = run_op(op, built, outputs)
        except AlgebraError as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        except Exception:  # an unexpected failure is recorded, not fatal
            out, err = None, "Traceback: " + traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        outputs[op["id"]] = out
        results.append({"id": op["id"], "t": t1 - t0, "out": out, "err": err, "warm": i < warmup})
        if i >= warmup and job["seconds"] is not None and t1 - t_start >= job["seconds"]:
            break
    elapsed = time.perf_counter() - t_start
    return {
        "results": results,
        "elapsed": elapsed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main():
    setup = json.loads(sys.stdin.readline())
    workload = setup["workload"]
    built = {name: binfty.parse_bracket_file(text) for name, text in setup["structures"].items()}
    tracer = None
    if setup["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    outputs = {}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        if job.get("exit"):
            break
        if job.get("summary"):
            tracer.write_spans(job["spans_path"])
            reply = {"trace": tracer.summary(built.values())}
        else:
            reply = _run(workload, built, job, tracer, outputs)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
