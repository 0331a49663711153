"""Deterministic head-based trace sampling (``repro.obs.sample``).

Covers the sampling tentpole's contract: spec parsing and precedence,
seeded-hash determinism (same seed + spec → byte-identical canonical
traces), lifecycle completeness (head-based decisions keep or drop whole
lifecycles, never orphans), protected kinds, the ``wants`` /
``kind_enabled`` call-site gates, and replay over a sampled trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClusterState,
    ConstraintManager,
    NodeCandidatesScheduler,
    Resource,
    TagPopularityScheduler,
    build_cluster,
)
from repro.core.requests import TaskRequest
from repro.core.scheduler import PlacementService
from repro.obs.load import RequestTemplate, run_step
from repro.obs.events import EventKind
from repro.obs.replay import ReplayState
from repro.obs.sample import (
    PROTECTED_KINDS,
    SamplingPolicy,
    TraceSampler,
    parse_sample_spec,
)
from repro.obs.trace import MemorySink, Tracer, set_tracer
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population


class TestPolicyParsing:
    def test_basic_spec(self):
        policy = SamplingPolicy.parse("dispatch=0.01,task=0.5,seed=7")
        assert policy.seed == 7
        assert policy.rate_for(EventKind.ENGINE_DISPATCH) == 0.01
        assert policy.rate_for(EventKind.TASK_SUBMIT) == 0.5
        assert policy.rate_for(EventKind.LRA_SUBMIT) == 1.0  # default

    def test_default_and_star(self):
        assert SamplingPolicy.parse("*=0.2").rate_for("anything") == 0.2
        assert SamplingPolicy.parse("default=0.3").rate_for("x.y") == 0.3

    def test_first_match_wins(self):
        policy = SamplingPolicy.parse("task.submit=1.0,task=0.1")
        assert policy.rate_for(EventKind.TASK_SUBMIT) == 1.0
        assert policy.rate_for(EventKind.TASK_RELEASE) == 0.1

    def test_glob_patterns(self):
        policy = SamplingPolicy.parse("task.*=0.25")
        assert policy.rate_for(EventKind.TASK_ALLOCATE) == 0.25
        assert policy.rate_for(EventKind.LRA_SUBMIT) == 1.0

    def test_bare_word_matches_dot_component(self):
        policy = SamplingPolicy.parse("dispatch=0")
        assert policy.rate_for(EventKind.ENGINE_DISPATCH) == 0.0
        assert policy.rate_for("task.submit") == 1.0

    @pytest.mark.parametrize(
        "spec", ["task", "task=", "=0.5", "task=abc", "seed=x", "task=1.5",
                 "task=-0.1"]
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            SamplingPolicy.parse(spec)

    def test_parse_sample_spec_blank_is_none(self):
        assert parse_sample_spec(None) is None
        assert parse_sample_spec("  ") is None
        assert parse_sample_spec("task=0.5") is not None

    def test_describe_round_trips(self):
        policy = SamplingPolicy.parse("dispatch=0.01,task=0.5,*=0.9,seed=7")
        again = SamplingPolicy.parse(policy.describe())
        assert again.describe() == policy.describe()
        assert again.seed == policy.seed
        assert again.rate_for(EventKind.TASK_SUBMIT) == 0.5

    def test_trivial_policy(self):
        assert SamplingPolicy.parse("task=1.0").trivial
        assert not SamplingPolicy.parse("task=0.5").trivial


def _run_sim(*, nodes=24, tasks_per_s=10, horizon=40.0):
    topology = build_cluster(nodes, racks=3, memory_mb=8 * 1024, vcores=8)
    sim = ClusterSimulation(
        topology,
        TagPopularityScheduler(),
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
    )
    for i, lra in enumerate(hbase_population(1)):
        sim.submit_lra(lra, at=float(2 * i))

    def submit(engine):
        second = int(engine.now)
        for j in range(tasks_per_s):
            sim.submit_task_now(
                TaskRequest(
                    task_id=f"s{second}-{j}",
                    app_id=f"job-{second % 3}",
                    resource=Resource(512, 1),
                    duration_s=3.0,
                )
            )

    sim.engine.schedule_periodic(1.0, submit, until=15.0)
    sim.run()
    return sim


def _sampled_run(install_tracer, spec: str) -> MemorySink:
    sink = MemorySink()
    tracer = install_tracer(
        Tracer([sink], sampler=TraceSampler(SamplingPolicy.parse(spec)))
    )
    _run_sim()
    tracer.close()
    return sink


class TestDeterminism:
    def test_same_seed_same_spec_byte_identical(self, install_tracer):
        spec = "task=0.3,span=0.2,seed=11"
        first = _sampled_run(install_tracer, spec).jsonl(canonical=True)
        second = _sampled_run(install_tracer, spec).jsonl(canonical=True)
        assert len(first) > 500
        assert first == second

    def test_different_seed_differs(self, install_tracer):
        kept_a = _sampled_run(install_tracer, "task=0.3,seed=1").kinds()
        kept_b = _sampled_run(install_tracer, "task=0.3,seed=2").kinds()
        assert kept_a != kept_b  # different identities survive

    def test_sampling_reduces_volume(self, install_tracer):
        full = _sampled_run(install_tracer, "seed=3")
        thin = _sampled_run(
            install_tracer, "task=0.2,span=0.2,dispatch=0,seed=3"
        )
        assert 0 < len(thin) < len(full)

    def test_kept_stream_has_contiguous_seqs(self, install_tracer):
        events = _sampled_run(install_tracer, "task=0.3,seed=5").events
        assert [e.seq for e in events] == list(range(len(events)))


class TestLifecycleCompleteness:
    def test_no_orphan_task_events(self, install_tracer):
        """Head-based sampling keeps or drops whole task lifecycles."""
        sink = _sampled_run(install_tracer, "task=0.3,seed=9")
        stages: dict[str, set[str]] = {}
        for event in sink.events:
            if event.kind.startswith("task."):
                task_id = event.data["task_id"]
                stages.setdefault(task_id, set()).add(event.kind)
        assert stages, "expected some kept task lifecycles"
        for task_id, kinds in stages.items():
            assert kinds == {
                EventKind.TASK_SUBMIT,
                EventKind.TASK_ALLOCATE,
                EventKind.TASK_RELEASE,
                EventKind.TASK_FINISH,
            }, f"{task_id} kept a partial lifecycle: {kinds}"

    def test_protected_kinds_survive_zero_default(self, install_tracer):
        sink = _sampled_run(install_tracer, "*=0,seed=4")
        kinds = set(sink.kinds())
        assert EventKind.SIM_STATE_HASH in kinds
        assert all(k in PROTECTED_KINDS for k in kinds)

    @given(seed=st.integers(0, 2**31), rate=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_decision_is_pure_function_of_seed_and_key(self, seed, rate):
        policy = SamplingPolicy([("task", rate)], seed=seed)
        one, two = TraceSampler(policy), TraceSampler(policy)
        for i in range(50):
            key = f"task-{i}"
            assert one.keeps(EventKind.TASK_SUBMIT, key) == two.keeps(
                EventKind.TASK_SUBMIT, key
            )

    @given(rate=st.floats(0.05, 0.95), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_lifecycle_inherits_head_decision(self, rate, seed):
        sampler = TraceSampler(SamplingPolicy([("task", rate)], seed=seed))
        for i in range(30):
            key = f"t-{i}"
            data = {"task_id": key}
            head = sampler.keeps(EventKind.TASK_SUBMIT, key)
            assert sampler.sample(EventKind.TASK_SUBMIT, data)[0] == head
            for kind in (EventKind.TASK_ALLOCATE, EventKind.TASK_RELEASE):
                assert sampler.keeps(kind, key) == head
                assert sampler.sample(kind, data)[0] == head
            # The closing event still matches, then ends the lifecycle.
            assert sampler.keeps(EventKind.TASK_FINISH, key) == head
            assert sampler.sample(EventKind.TASK_FINISH, data)[0] == head
            assert key not in sampler.kept
            assert not sampler.keeps(EventKind.TASK_RELEASE, key)

    def test_decision_map_stays_bounded(self):
        sampler = TraceSampler(SamplingPolicy([("task", 0.5)], seed=1))
        kept = 0
        for i in range(5000):
            data = {"task_id": f"t-{i}"}
            kept += sampler.sample(EventKind.TASK_SUBMIT, data)[0]
            assert len(sampler.kept) <= 1
            sampler.sample(EventKind.TASK_FINISH, data)
        assert 0 < kept < 5000
        assert not sampler.kept

    def test_only_an_opening_event_decides(self):
        """A lifecycle whose opening event the sampler never saw is
        dropped whole, whatever the rate of its later kinds."""
        sampler = TraceSampler(SamplingPolicy([("task", 1.0)], seed=1))
        data = {"task_id": "t-0"}
        for kind in (
            EventKind.TASK_ALLOCATE,
            EventKind.TASK_RELEASE,
            EventKind.TASK_FINISH,
        ):
            assert not sampler.keeps(kind, "t-0")
            assert sampler.sample(kind, data) == (False, data)
        assert sampler.sample(EventKind.TASK_SUBMIT, data) == (True, data)
        assert sampler.kept == {"t-0"}

    def test_tracer_installed_mid_run_keeps_no_orphan(self, install_tracer):
        """A tracer swapped in while task lifecycles are open keeps only
        the lifecycles whose ``task.submit`` it saw."""
        from benchmarks import test_obs_overhead as overhead

        sink = MemorySink()
        late = Tracer(
            [sink],
            sampler=TraceSampler(SamplingPolicy.parse("task=0.3,seed=9")),
        )

        class LateTracing(overhead.ClusterSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.engine.schedule_at(
                    10.5, lambda engine: set_tracer(late)
                )

        original = overhead.ClusterSimulation
        overhead.ClusterSimulation = LateTracing
        try:
            overhead._run_workload(Tracer(enabled=False))
        finally:
            overhead.ClusterSimulation = original
        submitted = {
            e.data["task_id"] for e in sink.of_kind(EventKind.TASK_SUBMIT)
        }
        assert submitted
        orphans = {
            e.data["task_id"]
            for e in sink.events
            if e.kind.startswith("task.") and e.data["task_id"] not in submitted
        }
        assert not orphans

    def test_sampled_serve_step_leaves_no_open_lifecycle(self, install_tracer):
        """``request.done`` closes a request lifecycle: after a sampled
        load step the kept set is empty."""
        sampler = TraceSampler(SamplingPolicy.parse("request=0.1,seed=7"))
        sink = MemorySink()
        install_tracer(Tracer([sink], sampler=sampler))
        topology = build_cluster(20, racks=2, memory_mb=16 * 1024, vcores=8)
        service = PlacementService(
            ClusterState(topology),
            NodeCandidatesScheduler(),
            ConstraintManager(topology),
        )
        step = run_step(
            service, RequestTemplate(containers=2),
            offered_rps=4000.0, requests=400, concurrency=4, seed=7,
        )
        assert step.completed == 400
        submitted = sink.of_kind(EventKind.REQUEST_SUBMIT)
        assert 0 < len(submitted) < 400
        assert len(sink.of_kind(EventKind.REQUEST_DONE)) == len(submitted)
        assert not sampler.kept


class TestCallSiteGates:
    def test_wants_matches_sample_for_keyed_kinds(self):
        spec = "task=0.4,seed=13"
        gate = Tracer([], sampler=TraceSampler(SamplingPolicy.parse(spec)))
        oracle = TraceSampler(SamplingPolicy.parse(spec))
        for i in range(200):
            key = f"t-{i}"
            wanted = gate.wants(EventKind.TASK_SUBMIT, key)
            kept, _ = oracle.sample(
                EventKind.TASK_SUBMIT, {"task_id": key}
            )
            assert wanted == kept

    def test_wants_counts_suppressed_events(self):
        tracer = Tracer(
            [], sampler=TraceSampler(SamplingPolicy.parse("task=0,seed=1"))
        )
        for i in range(10):
            assert not tracer.wants(EventKind.TASK_SUBMIT, f"t-{i}")
        assert tracer.events_dropped == 10
        assert tracer.events_seen == 10
        assert tracer.events_emitted == 0

    def test_wants_true_paths(self):
        tracer = Tracer([])  # no sampler: everything wanted
        assert tracer.wants(EventKind.TASK_SUBMIT, "t-1")
        tracer = Tracer(
            [], sampler=TraceSampler(SamplingPolicy.parse("task=0,seed=1"))
        )
        assert tracer.wants(EventKind.SIM_STATE_HASH)  # protected
        assert not Tracer([], enabled=False).wants(EventKind.TASK_SUBMIT)

    def test_kind_enabled_latch(self):
        tracer = Tracer(
            [],
            sampler=TraceSampler(
                SamplingPolicy.parse("engine.dispatch=0,task=0.5,seed=1")
            ),
        )
        assert not tracer.kind_enabled(EventKind.ENGINE_DISPATCH)
        assert tracer.kind_enabled(EventKind.TASK_SUBMIT)  # fractional
        assert tracer.kind_enabled(EventKind.SIM_STATE_HASH)  # protected
        assert not Tracer([], enabled=False).kind_enabled(
            EventKind.TASK_SUBMIT
        )

    def test_gated_and_ungated_kept_streams_identical(self, install_tracer):
        """The call-site gates change who pays for drops, never what is
        kept: forcing every event through emit() (wants → True) yields
        the same kept stream as the gated call sites."""
        spec = "task=0.3,span=0.2,seed=11"
        gated = _sampled_run(install_tracer, spec).jsonl(canonical=True)

        class UngatedTracer(Tracer):
            def wants(self, kind, key=None):  # defer to emit()'s sampler
                return self.enabled

            def kind_enabled(self, kind):
                return self.enabled

        sink = MemorySink()
        tracer = UngatedTracer(
            [sink], sampler=TraceSampler(SamplingPolicy.parse(spec))
        )
        install_tracer(tracer)
        _run_sim()
        tracer.close()
        assert sink.jsonl(canonical=True) == gated

    def test_self_stats_account_rates(self, install_tracer):
        sink = MemorySink()
        tracer = Tracer(
            [sink],
            sampler=TraceSampler(SamplingPolicy.parse("task=0.3,seed=11")),
        )
        install_tracer(tracer)
        _run_sim()
        tracer.close()
        stats = tracer.self_stats()
        assert stats["events_emitted"] == len(sink)
        assert stats["events_dropped"] > 0
        assert (
            stats["events_seen"]
            == stats["events_emitted"] + stats["events_dropped"]
        )
        assert stats["sampling"] == "task=0.3,seed=11"


def _replay(sink):
    state = ReplayState()
    for event in sink.events:
        state.feed(event.to_obj())
    return state.finish()


class TestSampledReplay:
    def test_sampled_trace_replays_without_divergence(self, install_tracer):
        """Dropping lifecycles must not fake a divergence: the sampler's
        ``sampled_hash`` enrichment gives replay a checkpoint computed
        over the kept events only."""
        sink = _sampled_run(install_tracer, "task=0.3,span=0.2,seed=11")
        report = _replay(sink)
        assert report.checks > 0
        assert not report.divergences

    def test_full_trace_still_replays(self, install_tracer):
        sink = _sampled_run(install_tracer, "seed=11")  # nothing dropped
        report = _replay(sink)
        assert report.checks > 0
        assert not report.divergences

    def test_state_hash_carries_sampled_fingerprint(self, install_tracer):
        sink = _sampled_run(install_tracer, "task=0.3,seed=11")
        hashes = sink.of_kind(EventKind.SIM_STATE_HASH)
        assert hashes
        assert all("sampled_hash" in e.data for e in hashes)
