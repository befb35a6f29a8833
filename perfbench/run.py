#!/usr/bin/env python3
"""Benchmark of the hornitp solver on four generated workloads.

    python3 perfbench/run.py --workload {chain,random,pairs,components}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  One
client sends requests in a closed loop from this process: each case's text
goes to the public API (``parse_chc`` then ``solve``, or
``binary_interpolant`` on a parsed ``(binary ...)`` problem) and the next
case starts when the reply is back.  The loop runs whole batches within
``--seconds`` of wall time.  Request times are reported at the
reference speed of ``speed.py``, which samples how fast the host runs a
fixed piece of Python while the loop runs.

Every reply is checked outside the timed region against a reference verdict
the solve path did not produce: by construction for ``chain``, ``pairs`` and
``components``, by the expansion oracle ``sat(expand(hc))`` for ``random``.
Solutions must pass ``verify_solution``, counterexample models must satisfy
their constraint and interpolants must pass ``check_interpolant``.  A wrong
reply ends the run with exit code 1.  Replies that end in a budget error
(``UnknownResult``, ``CubeLimitExceeded``, ...) count as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer split from ``tracer.py`` instead, and
the run fails if a solved instance did not open exactly one
``horn.verify_solution`` span.
Human-readable detail goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl
import speed
from speed import SpeedSampler
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
VERDICTS = HERE / "data" / "random_verdicts.json"
DEFAULT_SEED = 0

# The highest percentile with at least ten samples beyond it at the sample
# counts a run gets today, except: on random p98 and p99 spread 14-23%
# between seeds (each seed has its own few slow sets), so p95; components
# gets two or three samples, so its maximum.
TAIL_PERCENTILE = {"chain": 90, "random": 95, "pairs": 99, "components": 100}

BUDGET_ERRORS = ("UnknownResult", "CubeLimitExceeded", "ExpansionLimitExceeded",
                 "PathLimitExceeded", "SubsetLimitExceeded")
SETUP_RUNS = 9


class WrongReply(Exception):
    """A reply disagreed with its reference or failed its check."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_hornitp():
    if not (SRC / "hornitp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hornitp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hornitp

    if Path(hornitp.__file__).resolve().parent != SRC / "hornitp":
        raise SystemExit(f"perfbench: imported hornitp from {hornitp.__file__}, not {SRC}")
    return hornitp


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def oracle_verdict(hornitp, text: str):
    """Verdict from the expansion oracle, or None when it cannot decide."""
    from hornitp.lp import Unsat

    try:
        res = hornitp.sat(hornitp.expand(hornitp.parse_chc(text)))
    except hornitp.HornitpError:
        return None
    return wl.SOLVED if isinstance(res, Unsat) else wl.COUNTEREXAMPLE


def stream_digest(seed: int, count: int) -> str:
    h = hashlib.sha256()
    stream = wl.random_stream(seed)
    for _ in range(count):
        h.update(next(stream)[1].encode())
    return h.hexdigest()


def random_reference(hornitp, seed: int):
    """reference(index, text) for the random workload: stored verdicts for
    the default seed's first instances, the oracle for everything else."""
    stored = ""
    if seed == DEFAULT_SEED:
        data = json.loads(VERDICTS.read_text())
        if data["sha256"] != stream_digest(seed, len(data["verdicts"])):
            raise SystemExit(f"perfbench: {VERDICTS.name} does not match the generator")
        stored = data["verdicts"]
    codes = {"S": wl.SOLVED, "C": wl.COUNTEREXAMPLE, "-": None}

    def reference(i, text):
        if i < len(stored):
            return codes[stored[i]]
        return oracle_verdict(hornitp, text)

    return reference


def prepare(hornitp, case):
    """Untimed input preparation: the parsed (A, B) of a binary problem."""
    if case.kind == "binary":
        _, pair = hornitp.parse_problem(case.text)
        return pair
    return None


def call(hornitp, case, pair):
    """The timed request: returns (clause set or None, reply)."""
    if case.kind == "chc":
        hc = hornitp.parse_chc(case.text)
        return hc, hornitp.solve(hc)
    return None, hornitp.binary_interpolant(*pair)


def check(hornitp, case, pair, hc, reply):
    verdict = type(reply).__name__
    if verdict != case.expected:
        raise WrongReply(f"{case.name}: got {verdict}, expected {case.expected}")
    if verdict == wl.SOLVED:
        if not hornitp.verify_solution(reply.solution, hc):
            raise WrongReply(f"{case.name}: solution fails verify_solution")
    elif verdict == wl.COUNTEREXAMPLE:
        from hornitp.terms import evaluate

        if not evaluate(reply.constraint, reply.model):
            raise WrongReply(f"{case.name}: counterexample model violates its constraint")
    else:
        failures = hornitp.check_interpolant(pair[0], pair[1], reply.formula)
        if failures:
            raise WrongReply(f"{case.name}: interpolant fails {failures}")


def is_budget_error(exc) -> bool:
    return type(exc).__name__ in BUDGET_ERRORS


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Loop:
    """Closed-loop results: the wall-time window of every request, grouped
    by batch; a traced loop also keeps its cases for the untraced replay."""

    def __init__(self):
        self.batches: list = []  # (windows, answered) per batch
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.cases: list = []

    def latencies(self, clock) -> list:
        """Per-request times; clock(a, b) turns a window into seconds."""
        return [clock(a, b) for windows, _ in self.batches for a, b in windows]

    def batch_throughput(self, clock) -> list:
        return [answered / sum(clock(a, b) for a, b in windows)
                for windows, answered in self.batches]


def run_case(hornitp, case, loop, tracer=None):
    """Time one request, then check it; returns (start, end, answered)."""
    pair = prepare(hornitp, case)
    if tracer is not None:
        tracer.begin()
    t0 = perf_counter()
    try:
        hc, reply = call(hornitp, case, pair)
    except hornitp.HornitpError as exc:
        t1 = perf_counter()
        if tracer is not None:
            tracer.end()
        if not is_budget_error(exc):
            raise WrongReply(f"{case.name}: {type(exc).__name__}: {exc}") from exc
        name = type(exc).__name__
        loop.failures[name] = loop.failures.get(name, 0) + 1
        return t0, t1, False
    t1 = perf_counter()
    if tracer is not None:
        verify_spans = tracer.end()
        if type(reply).__name__ == wl.SOLVED and verify_spans != 1:
            raise WrongReply(f"{case.name}: solved with {verify_spans} "
                             "horn.verify_solution spans instead of 1")
    check(hornitp, case, pair, hc, reply)
    return t0, t1, True


def run_loop(hornitp, batches, seconds, tracer=None) -> Loop:
    """Run whole batches, the next one only when it would still end within
    ``seconds`` if it took as long as the last one; at least one batch."""
    loop = Loop()
    start = perf_counter()
    batch_s = 0.0
    while not loop.batches or perf_counter() - start + batch_s <= seconds:
        batch_start = perf_counter()
        windows, answered = [], 0
        for case in next(batches):
            t0, t1, ok = run_case(hornitp, case, loop, tracer)
            if tracer is not None:
                loop.cases.append(case)
            windows.append((t0, t1))
            loop.attempted += 1
            loop.failed += not ok
            answered += ok
        loop.batches.append((windows, answered))
        batch_s = perf_counter() - batch_start
    return loop


def replay(hornitp, cases) -> float:
    """Untraced wall time of the same requests, for the tracing overhead."""
    total = 0.0
    for case in cases:
        t0, t1, _ = run_case(hornitp, case, Loop())
        total += t1 - t0
    return total


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def setup_seconds() -> float:
    """Median over fresh interpreters of the time ``import hornitp`` takes,
    at reference speed: each one then imports speed.REFERENCE_IMPORTS, and
    the ratio of the two times is scaled by speed.REFERENCE_IMPORT_S."""
    code = ("import sys, time; sys.path.insert(0, %r); t0 = time.perf_counter(); "
            "import hornitp; t1 = time.perf_counter(); import %s; "
            "print(t1 - t0, time.perf_counter() - t1)" % (str(SRC), speed.REFERENCE_IMPORTS))
    ratios = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        if i:  # the first run may still write the bytecode cache
            own, reference = map(float, out.stdout.split())
            ratios.append(own / reference)
    return statistics.median(ratios) * speed.REFERENCE_IMPORT_S


def probe_wall(hornitp, case) -> int:
    """Run a known wall once, untimed: 1 if it still ends in a budget error,
    0 if it now gets a checked answer."""
    loop = Loop()
    _, _, ok = run_case(hornitp, case, loop)
    log(f"known wall {case.name}: {'answered' if ok else next(iter(loop.failures))}")
    return 0 if ok else 1


WALLS = {"chain": wl.DISJUNCTIVE_CHAIN, "pairs": wl.PARITY_PAIR}


def batches_for(hornitp, workload, seed):
    if workload == "chain":
        return wl.chain_batches(seed)
    if workload == "random":
        return wl.random_batches(seed, random_reference(hornitp, seed))
    if workload == "pairs":
        return wl.pairs_batches(seed)
    return wl.components_batches(seed)


def layer_unit(name: str) -> str:
    if name in ("trace.instances", "walls.failed") or name.endswith("_mean"):
        return "count"
    return "s/inst" if name.endswith("_s") or "_s." in name else "count/inst"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chain", "random", "pairs", "components"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    hornitp = import_hornitp()
    setup_s = setup_seconds()
    batches = batches_for(hornitp, args.workload, args.seed)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                loop = run_loop(hornitp, batches, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            if tracer.missing:
                log("not traced (absent):", ", ".join(tracer.missing))
            traced_wall = sum(loop.latencies(lambda a, b: b - a))
            untraced_wall = replay(hornitp, loop.cases)
            layers = tracer.metrics()
            layers["trace.overhead_s"] = (traced_wall - untraced_wall) / len(loop.cases)
            wall = WALLS.get(args.workload)
            layers["walls.failed"] = probe_wall(hornitp, wall) if wall else 0
            result["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                                 for k, v in layers.items()}
            report_layers(tracer, layers, traced_wall, untraced_wall)
        else:
            with SpeedSampler() as sampler:
                loop = run_loop(hornitp, batches, args.seconds)
            if args.workload in WALLS:
                probe_wall(hornitp, WALLS[args.workload])
            latencies = loop.latencies(sampler.reference_seconds)
            throughput = loop.batch_throughput(sampler.reference_seconds)
            raw = loop.latencies(lambda a, b: b - a - sampler.sampling_seconds(a, b))
            p = TAIL_PERCENTILE[args.workload]
            n = len(latencies)
            log(f"{args.workload}: {n} instances in {len(throughput)} batches, "
                f"{loop.failed} failed {loop.failures}; tail = p{p} "
                f"({n - math.ceil(p / 100 * n)} samples beyond); at reference speed "
                + ", ".join(f"p{q} {percentile(latencies, q):.4g} s"
                            for q in (50, 90, 95, 98, 99, 100)))
            log(f"wall time: p50 {statistics.median(raw):.4g} s, p{p} {percentile(raw, p):.4g} s; "
                f"{len(sampler.durations)} speed samples, reference work "
                f"p10 {percentile(sampler.durations, 10) * 1e6:.1f} us, "
                f"p50 {statistics.median(sampler.durations) * 1e6:.1f} us, "
                f"p90 {percentile(sampler.durations, 90) * 1e6:.1f} us")
            result["metrics"] = {
                "throughput_per_s": {"value": statistics.median(throughput), "unit": "1/s"},
                "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "latency_tail_s": {"value": percentile(latencies, p), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    except WrongReply as exc:
        traceback.print_exc()
        log(f"perfbench: wrong reply: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    print(json.dumps(result))
    return 0


def report_layers(tracer, layers, traced_wall, untraced_wall):
    n = tracer.instances
    log(f"traced {n} instances: {traced_wall:.3f} s traced, {untraced_wall:.3f} s untraced")
    shares = {k: v for k, v in layers.items()
              if k.endswith(".self_s") and k.count(".") >= 2}
    per_inst = traced_wall / n
    for k, v in sorted(shares.items(), key=lambda kv: -kv[1]):
        log(f"  {k:45s} {v * 1e3:10.3f} ms/inst {100 * v / per_inst:6.1f}%")
    for module in MODULES:
        v = layers[f"{module}.self_s"]
        log(f"  module {module:38s} {v * 1e3:10.3f} ms/inst {100 * v / per_inst:6.1f}%")
    if tracer.error_types:
        log("  errors leaving layer spans:", dict(sorted(tracer.error_types.items())))


if __name__ == "__main__":
    sys.exit(main())
