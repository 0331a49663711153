"""Phase-accounting invariants for the branch-and-bound solver.

The solver books its effort into ``SolverStats`` phase buckets (presolve,
LP, rounding heuristic); the remainder of ``time_total_s`` is branching /
search overhead.  That attribution is what the span profiler reports, so
it must be internally consistent: every phase non-negative and the phase
sum never exceeding the total (the historical bug was the heuristic
bucket's LP-time subtraction going negative).  Checked over a population
of seeded random MILPs, plus the solver's span-phase emission when
tracing is on.
"""

from __future__ import annotations

import random

import pytest

from repro.obs import EventKind, MemorySink, Tracer
from repro.solver import BnBOptions, solve
from tests.helpers import span_profile
from tests.test_solver_differential import random_model

#: Wall-clock slack for the phase-sum check: each phase is timed with its
#: own perf_counter pair, so rounding can push the sum a hair past total.
_CLOCK_SLACK_S = 5e-3


def _assert_phase_invariants(stats, context: str) -> None:
    assert stats is not None, context
    for phase in ("time_presolve_s", "time_lp_s", "time_heuristic_s",
                  "time_total_s"):
        assert getattr(stats, phase) >= 0.0, f"{context}: {phase} negative"
    phase_sum = (
        stats.time_presolve_s + stats.time_lp_s + stats.time_heuristic_s
    )
    assert phase_sum <= stats.time_total_s + _CLOCK_SLACK_S, (
        f"{context}: phases sum to {phase_sum:.6f}s "
        f"> total {stats.time_total_s:.6f}s"
    )


def test_phase_sum_bounded_by_total_on_seeded_milps():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        model = random_model(rng)
        solution = solve(model, backend="bnb")
        _assert_phase_invariants(solution.stats, f"seed={seed}")


def test_heuristic_time_never_negative_with_rounding_on():
    # The rounding heuristic is where the LP-time subtraction lives; run it
    # across many models and require the bucket stays non-negative.
    options = BnBOptions()
    for seed in range(30):
        model = random_model(random.Random(7000 + seed))
        solution = solve(model, backend="bnb", options=options)
        assert solution.stats.time_heuristic_s >= 0.0, f"seed={seed}"


def test_traced_solve_emits_phase_spans(install_tracer):
    sink = MemorySink()
    install_tracer(Tracer([sink]))
    model = random_model(random.Random(42))
    solution = solve(model, backend="bnb")
    report = span_profile(sink.events)
    assert "solver.bnb" in report.spans
    for phase in ("presolve", "lp", "heuristic"):
        path = f"solver.bnb;{phase}"
        assert path in report.spans, f"missing phase span {path}"
    # The synthetic phases mirror the stats buckets.
    stats = solution.stats
    assert report.spans["solver.bnb;lp"].total_s == pytest.approx(
        stats.time_lp_s
    )
    assert report.spans["solver.bnb;lp"].count == max(1, stats.lp_solves)
    # And the phase children never push the parent's self time negative.
    parent = report.spans["solver.bnb"]
    assert parent.self_s >= 0.0
    assert parent.total_s + _CLOCK_SLACK_S >= (
        report.spans["solver.bnb;presolve"].total_s
        + report.spans["solver.bnb;lp"].total_s
        + report.spans["solver.bnb;heuristic"].total_s
    )


def test_traced_highs_solve_emits_span(install_tracer):
    sink = MemorySink()
    install_tracer(Tracer([sink]))
    solve(random_model(random.Random(43)), backend="highs")
    report = span_profile(sink.events)
    assert "solver.highs" in report.spans
    # Exactly one span event per solve alongside the solver.solve record.
    assert sum(1 for e in sink.events if e.kind == EventKind.SPAN) == 1
