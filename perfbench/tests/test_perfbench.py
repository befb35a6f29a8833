"""Tests of the benchmark's own code: corpora, reference verdicts, checks
and the tracer.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

hornitp = run.import_hornitp()

from hornitp.lp import Unsat  # noqa: E402
from hornitp.terms import cand  # noqa: E402


def first_batches(workload, seed, count=2):
    batches = run.batches_for(hornitp, workload, seed)
    return [[(c.name, c.text, c.expected) for c in next(batches)] for _ in range(count)]


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["chain", "random", "pairs", "components"])
def test_same_seed_gives_identical_corpus(workload):
    count = 1 if workload == "components" else 2
    assert first_batches(workload, 3, count) == first_batches(workload, 3, count)
    assert first_batches(workload, 3, count) != first_batches(workload, 4, count)


def test_random_matches_the_tests_generator():
    sys.path.insert(0, str(ROOT / "tests"))
    generators = pytest.importorskip("generators")
    for seed in range(40):
        ours = hornitp.parse_chc(wl.random_clause_set(random.Random(seed))[0])
        theirs = generators.random_clause_set(random.Random(seed))
        assert hornitp.print_chc(ours) == hornitp.print_chc(theirs)


def test_components_are_disjoint_renamed_copies():
    hc = hornitp.parse_chc(wl.components_text(random.Random(0)))
    assert len(hornitp.connected_components(hc)) == wl.TREELIKE_COPIES + 1
    treelike = hornitp.parse_chc((wl.DATA / "increment_treelike.chc").read_text())
    unwound = hornitp.parse_chc((wl.DATA / "increment_unwound.chc").read_text())
    assert len(hc.clauses) == wl.TREELIKE_COPIES * len(treelike) + len(unwound)


# ---------------------------------------------------------------------------
# reference verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("unsat", [False, True])
def test_chain_verdict_by_construction(n, unsat):
    text = wl.chain_text(n, unsat, start=-2, step=3, prefix="inv")
    expected = wl.COUNTEREXAMPLE if unsat else wl.SOLVED
    assert run.oracle_verdict(hornitp, text) == expected
    reply = hornitp.solve(hornitp.parse_chc(text))
    assert type(reply).__name__ == expected


def test_pairs_are_unsat_by_construction():
    for case in next(wl.pairs_batches(7))[:40]:
        a, b = run.prepare(hornitp, case)
        assert isinstance(hornitp.sat(cand(a, b)), Unsat)


def test_component_copies_are_solvable():
    # the data files are copies of the tests' examples, whose solutions verify
    for name in ("increment_treelike", "increment_unwound"):
        text = (wl.DATA / f"{name}.chc").read_text()
        assert text == (ROOT / "tests" / "data" / f"{name}.chc").read_text()
        hc = hornitp.parse_chc(text)
        sol = hornitp.parse_solution((ROOT / "tests" / "data" / f"{name}.sol").read_text(), hc)
        assert hornitp.verify_solution(sol, hc)


def test_stored_random_verdicts_match_the_oracle():
    data = json.loads(run.VERDICTS.read_text())
    assert data["seed"] == run.DEFAULT_SEED
    assert data["sha256"] == run.stream_digest(run.DEFAULT_SEED, len(data["verdicts"]))
    stream = wl.random_stream(run.DEFAULT_SEED)
    codes = {wl.SOLVED: "S", wl.COUNTEREXAMPLE: "C", None: "-"}
    for i in range(150):
        _, text = next(stream)
        assert codes[run.oracle_verdict(hornitp, text)] == data["verdicts"][i]


# ---------------------------------------------------------------------------
# reply checks
# ---------------------------------------------------------------------------


def test_wrong_verdict_is_rejected():
    case = wl.Case("flipped", "chc", wl.chain_text(2, True), wl.SOLVED)
    with pytest.raises(run.WrongReply):
        run.run_case(hornitp, case, run.Loop())


def test_unverifiable_solution_is_rejected():
    from hornitp.terms import TRUE

    case = wl.Case("chain", "chc", wl.chain_text(2, False), wl.SOLVED)
    hc, reply = run.call(hornitp, case, None)
    bogus = hornitp.Solution({p: (params, TRUE)
                              for p, (params, _) in reply.solution.assignment.items()})
    with pytest.raises(run.WrongReply):
        run.check(hornitp, case, None, hc, hornitp.Solved(bogus))


def test_skipped_verification_gate_fails_the_traced_run(monkeypatch):
    from hornitp.horn import Valid

    monkeypatch.setattr(hornitp.solver, "verify_solution", lambda *a, **k: Valid())
    case = wl.Case("chain", "chc", wl.chain_text(2, False), wl.SOLVED)
    tr = Tracer()
    tr.install()
    try:
        with pytest.raises(run.WrongReply, match="verify_solution"):
            run.run_case(hornitp, case, run.Loop(), tr)
    finally:
        tr.uninstall()


def test_known_walls_still_fail_with_a_budget_error():
    assert run.probe_wall(hornitp, wl.DISJUNCTIVE_CHAIN) == 1
    assert run.probe_wall(hornitp, wl.PARITY_PAIR) == 1


# ---------------------------------------------------------------------------
# speed sampling
# ---------------------------------------------------------------------------


def sampler_with(starts, durations):
    sampler = SpeedSampler()
    sampler.starts, sampler.durations = list(starts), list(durations)
    return sampler


def test_reference_seconds_scale_by_the_local_speed():
    r = speed.REFERENCE_S
    # the reference work took twice its reference time: the host ran at half speed
    sampler = sampler_with([0.0, 1.0, 2.0], [2 * r] * 3)
    assert sampler.reference_seconds(0.25, 0.75) == pytest.approx(0.25)


def test_sampler_time_is_left_out_of_a_window():
    r = speed.REFERENCE_S
    sampler = sampler_with([0.0, 1.0, 2.0], [r] * 3)
    assert sampler.sampling_seconds(0.5, 1.5) == pytest.approx(r)
    assert sampler.reference_seconds(0.5, 1.5) == pytest.approx(1.0 - r)


def test_speed_change_inside_a_window_is_integrated():
    r = speed.REFERENCE_S
    sampler = sampler_with(range(6), [r, r, r, 2 * r, 2 * r, 2 * r])
    expected = 0.5 + (1 - r) + (1 - r) * 2 / 3 + (1 - 2 * r) / 2 + (0.5 - 2 * r) / 2
    assert sampler.reference_seconds(0.5, 4.5) == pytest.approx(expected)


def test_one_slow_sample_does_not_decide_a_stretch():
    r = speed.REFERENCE_S
    sampler = sampler_with(range(5), [r, r, 50 * r, r, r])
    assert sampler.reference_seconds(1.5, 1.9) == pytest.approx(0.4)


def test_sampler_samples_while_active_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(period=0.005) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.durations) >= 10
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    inner = tr._span_wrapper("m", "inner", lambda: time.sleep(0.03))

    def outer_body():
        time.sleep(0.02)
        inner()
        inner()

    outer = tr._span_wrapper("m", "outer", outer_body)
    tr.begin()
    outer()
    tr.end()
    assert tr.calls["m.inner"] == 2
    assert tr.total_s["m.outer"] == pytest.approx(0.08, abs=0.015)
    assert tr.self_s["m.outer"] == pytest.approx(0.02, abs=0.01)
    assert tr.self_s["m.inner"] == pytest.approx(0.06, abs=0.01)
    assert tr.module_self_s["m"] == pytest.approx(tr.total_s["m.outer"], abs=1e-9)


def test_span_stacks_are_per_thread():
    tr = Tracer()
    inner = tr._span_wrapper("m", "inner", lambda: time.sleep(0.03))
    outer = tr._span_wrapper("m", "outer", lambda: (time.sleep(0.02), inner()))
    tr.begin()
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    tr.end()
    assert not any(t.is_alive() for t in threads)
    assert tr.calls["m.outer"] == 4
    # concurrent spans of other threads are not subtracted as children
    assert tr.self_s["m.outer"] == pytest.approx(4 * 0.02, abs=0.03)
    assert tr.self_s["m.inner"] == pytest.approx(4 * 0.03, abs=0.03)


def test_errors_count_once_per_module():
    tr = Tracer()

    def fail():
        raise ValueError("x")

    inner = tr._span_wrapper("m", "inner", fail)
    outer = tr._span_wrapper("m", "outer", inner)
    tr.begin()
    with pytest.raises(ValueError):
        outer()
    tr.end()
    assert tr.errors["m"] == 1
    assert tr.error_types["m.ValueError"] == 1


def test_rebinding_reaches_every_module_binding():
    original = hornitp.engine.sat
    tr = Tracer()
    tr.install()
    try:
        assert not tr.missing
        bound = {hornitp.engine.sat, hornitp.horn.sat, hornitp.solver.sat,
                 hornitp.problems.sat, hornitp.sat}
        assert len(bound) == 1 and bound.pop().__wrapped__ is original
        assert hornitp.solver.verify_solution is hornitp.horn.verify_solution
    finally:
        tr.uninstall()
    assert hornitp.horn.sat is original and hornitp.solver.sat is original


def test_traced_solve_counts_known_calls():
    text = wl.chain_text(3, False)
    n_clauses = len(hornitp.parse_chc(text).clauses)
    tr = Tracer()
    tr.install()
    try:
        tr.begin()
        hornitp.solve(hornitp.parse_chc(text))
        verify_spans = tr.end()
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert verify_spans == 1
    assert m["horn.verify_solution.calls"] == 1
    assert m["chc.parse_chc.calls"] == 1
    # the chain is one sequence problem with a part per clause: one frontier
    # check per node, plus the root's own satisfiability check
    assert m["solver.frontier_check.calls"] == n_clauses + 1
    # verify_solution decides one sat query per clause
    assert tr.calls["engine.sat"] >= 2 * n_clauses + 1
    assert m["solver.components"] == 1
    assert m["lp.decide_rational.small.calls"] + m["lp.decide_rational.large.calls"] > 0
    # self times telescope to the root spans; with the remainder they make
    # up the instance's wall time
    modules = sum(m[f"{mod}.self_s"] for mod in MODULES)
    assert modules + m["trace.remainder_s"] == pytest.approx(tr.wall_s, rel=1e-6)
    assert 0 <= m["trace.remainder_s"] < tr.wall_s


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.TAIL_PERCENTILE)
    assert run.main(["--workload", "pairs", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
