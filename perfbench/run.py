"""gebra benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
gebra package in src/.  One client drives the program in a closed loop
with one worker process alive at a time:

  words, topo  one long-lived library session (perfbench/worker.py)
  descent      a fresh `python3 -m gebra ...` process per op

--trace 0 runs the seeded schedule until S seconds have passed (descent:
whole rounds) and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs a fixed list of rounds twice, untraced and then traced, and
reports the per-layer metrics of BENCHMARK.json plus the tracing overhead.  Either way
every output is checked afterwards by perfbench/check.py in its own
process.  The last stdout line is the JSON result; the lines before it
are the same numbers for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
OP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- words and topo: a library session ------------------------------------------


class Worker:
    """One perfbench/worker.py process; setup_s is spawn to ready."""

    def __init__(self, workload, trace=False):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )
        structures = workloads.STRUCTURES if workload == "words" else {}
        self._send({"workload": workload, "structures": structures, "trace": trace})
        self._recv()
        self.setup_s = time.perf_counter() - t0

    def _send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, job):
        self._send(job)
        return self._recv()

    def close(self):
        try:
            self._send({"exit": True})
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _session(workload, rounds, seconds):
    """Run rounds in a fresh worker for `seconds` after the warm-up rounds."""
    worker = Worker(workload)
    try:
        reply = worker.run({"rounds": rounds, "warmup_rounds": workloads.WARMUP_ROUNDS,
                            "seconds": seconds})
    finally:
        worker.close()
    reply["setup_s"] = worker.setup_s
    return reply


def _setup_times(workload, count):
    """Spawn-to-ready of fresh workers, one alive at a time."""
    times = []
    for _ in range(count):
        worker = Worker(workload)
        worker.close()
        times.append(worker.setup_s)
    return times


# -- descent: one process per op -------------------------------------------------


def _cli(argv, trace_path=None):
    if trace_path is None:
        cmd = [sys.executable, "-m", "gebra", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cliwrap.py"), str(trace_path), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += b"\ntimed out"
    t = time.perf_counter() - t0
    return {"t": t, "out": out.decode().rstrip("\n"), "err": err.decode(), "exit": proc.returncode}


def _cli_setup_times(count):
    """Wall time of `gebra desc dynkin 1`: process start, import, argparse."""
    times = []
    for _ in range(count):
        res = _cli(["desc", "dynkin", "1"])
        if res["exit"] != 0 or res["out"] != "1":
            raise BenchError(f"gebra desc dynkin 1 failed: {res['err'][-2000:]}")
        times.append(res["t"])
    return times


def _cli_session(rounds, seconds):
    """One process per op, whole rounds, until `seconds` have passed."""
    results = []
    t_start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            results.append(_cli(op["argv"]))
        if time.perf_counter() - t_start >= seconds:
            break
    return {"results": results, "elapsed": time.perf_counter() - t_start,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


# -- checking and reporting --------------------------------------------------------


def _check(workload, ops, results):
    job = {"workload": workload, "ops": ops, "results": results,
           "structures": workloads.STRUCTURES}
    proc = subprocess.run([sys.executable, str(HERE / "check.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=_env(), cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"check.py failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _digest(workload, results):
    h = hashlib.sha256()
    for res in results:
        if workload == "descent":
            h.update(f"{res['exit']}\n".encode())
        h.update(f"{res['out']}\n".encode())
    return h.hexdigest()


def _tail(times, pct):
    """Nearest-rank percentile of the sorted times, and how many ops lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _trace_rounds(seconds):
    return max(1, math.ceil(seconds / 10))


def _flat(rounds, count):
    return [op for ops in rounds for op in ops][:count]


def measure(workload, seed, seconds):
    """End-to-end metrics of a run of at least `seconds`."""
    rounds = workloads.schedule(workload, seed)
    if workload == "descent":
        setup = _cli_setup_times(workloads.SETUP_REPEATS)
        reply = _cli_session(rounds, seconds)
    else:
        setup = _setup_times(workload, workloads.SETUP_REPEATS - 1)
        reply = _session(workload, rounds, seconds)
        setup.append(reply["setup_s"])
    results = reply["results"]
    times = [r["t"] for r in results if not r.get("warm")]
    pct = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = _tail(times, pct)
    values = {
        "ops_per_s": len(times) / reply["elapsed"],
        "op_p50_ms": statistics.median(times) * 1000,
        "op_tail_ms": tail * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": reply["maxrss_kib"] / 1024,
    }
    warm = len(results) - len(times)
    notes = [
        (f"{warm} warm-up ops, then " if warm else "")
        + f"{len(times)} timed ops in {reply['elapsed']:.2f} s; op_tail_ms is p{pct} with {beyond} ops beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: tail not resolved)"),
        f"setup_s is the median of {len(setup)} set-ups",
    ]
    return rounds, results, values, notes


def _traced_cli(ops, spans_path):
    """Each op as `gebra` and as cliwrap.py, back to back; summed per-layer values."""
    plain, traced, values = [], [], {}
    data_path = OUT_DIR / f"cliwrap-{os.getpid()}.json"
    with open(spans_path, "w", encoding="utf-8") as spans:
        for i, op in enumerate(ops):
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not is_traced:
                    plain.append(_cli(op["argv"]))
                    continue
                traced.append(_cli(op["argv"], data_path))
                if not data_path.exists():  # the command died before main()
                    continue
                with open(data_path, encoding="utf-8") as fh:
                    data = json.load(fh)
                data_path.unlink()
                for key, value in data["summary"].items():
                    values[key] = values.get(key, 0) + value
                for span in data["spans"]:
                    spans.write(json.dumps([*span[:4], op["id"]]) + "\n")
    return plain, traced, values


def _traced_session(workload, ops, spans_path):
    """Each op in an untraced and in a traced worker, back to back; per-layer values."""
    workers = []
    plain, traced = [], []
    try:
        workers.append(Worker(workload))
        workers.append(Worker(workload, trace=True))
        for i, op in enumerate(ops):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                reply = workers[k].run({"rounds": [[op]], "warmup_rounds": 0, "seconds": None})
                (traced if k else plain).extend(reply["results"])
        values = workers[1].run({"summary": True, "spans_path": str(spans_path)})["trace"]
    finally:
        for worker in workers:
            worker.close()
    return plain, traced, values


def trace(workload, seed, seconds):
    """Per-layer metrics of a fixed list of rounds, and the tracing overhead.

    Every op runs untraced and traced back to back, the order alternating,
    so both see the same machine state and their time ratio is the overhead.
    The untraced worker idles while the traced one computes, and vice versa.
    """
    rounds = workloads.schedule(workload, seed, rounds=_trace_rounds(seconds))
    ops = _flat(rounds, None)
    spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    if workload == "descent":
        plain, traced, values = _traced_cli(ops, spans_path)
    else:
        plain, traced, values = _traced_session(workload, ops, spans_path)
    plain_s = sum(r["t"] for r in plain)
    traced_s = sum(r["t"] for r in traced)
    values["trace.ops_per_s_untraced"] = len(ops) / plain_s
    values["trace.ops_per_s_traced"] = len(ops) / traced_s
    values["trace.slowdown"] = traced_s / plain_s
    under = values.get("topo.set_partitions.yielded_under_delta", 0)
    accepted = values.get("topo.canonicalize.calls_under_delta", 0) / 2
    values["topo.ec_accept_ratio"] = accepted / under if under else 0.0
    changed = [op["id"] for op, a, b in zip(ops, plain, traced)
               if (a["out"], a.get("exit")) != (b["out"], b.get("exit"))]
    notes = [
        f"fixed list: {len(rounds)} round(s), {len(ops)} ops; spans in {spans_path.relative_to(ROOT)}",
        f"tracing overhead: {values['trace.ops_per_s_untraced']:.3f} op/s untraced, "
        f"{values['trace.ops_per_s_traced']:.3f} op/s traced "
        f"(x{values['trace.slowdown']:.2f} op time)",
    ]
    if changed:
        notes.append(f"tracing changed the output of ops {changed[:10]}")
    return rounds, traced, values, notes, len(changed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gebra" / "__init__.py").is_file():
        raise BenchError(f"no gebra package under {SRC}")
    spec = _spec()
    OUT_DIR.mkdir(exist_ok=True)

    extra_failed = 0
    if args.trace:
        rounds, results, values, notes, extra_failed = trace(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        rounds, results, values, notes = measure(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    ops = _flat(rounds, len(results))
    t0 = time.perf_counter()
    verdict = _check(args.workload, ops, results)
    notes.append(f"correctness gate took {time.perf_counter() - t0:.2f} s")

    attempted = len(results) + verdict["golden_cases"]
    failed = len(verdict["failures"]) + len(verdict["golden_failures"]) + extra_failed
    values["ok_ratio"] = 1 - failed / attempted
    hashed = len(_flat(rounds[:_trace_rounds(args.seconds)], len(results)))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    print(f"  outputs_sha256 {_digest(args.workload, results[:hashed])} (first {hashed} ops)")
    print(f"  golden values of criteria 1-4, 6: "
          f"{verdict['golden_cases'] - len(verdict['golden_failures'])}/{verdict['golden_cases']} pass")
    for op_id, why in verdict["failures"][:10]:
        print(f"  FAILED op {op_id}: {why}")
    for name in verdict["golden_failures"]:
        print(f"  FAILED golden: {name}")
    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] not in values:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"  {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  per-layer metrics produced: {len(wanted) - len(missing)}/{len(wanted)}"
              + (f"; missing {missing}" if missing else ""))
    else:
        print(f"  fail_ratio = {failed / attempted:.6g} - ({failed} of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
