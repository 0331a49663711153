"""The four workloads: set-up, the measured passes, and the output checks.

Each workload builds its inputs from the seed and then runs the *same* pass
over those inputs a fixed number of times, each time on a freshly built
cluster.  The program is deterministic, so every pass does identical work;
whatever differs between two passes is the host (this benchmark runs on
shared machines where one slice of work in three takes up to twice as long
as the next).  Each operation is reported as its **median over the passes**,
and a pass's work is divided by the sum of those medians.  The number of
passes follows from ``--seconds`` and the pass length written beside the
populations, never from how fast the program ran.

All timing is done here, around calls into public functions of ``repro``;
with a :class:`~.spans.SpanRecorder` installed the same code also yields the
per-layer numbers.  Set-up, input generation and output checks run between
the timed sections.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import queue
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Mapping

import repro
from repro import ClusterState, ConstraintManager, build_cluster
from repro.core.requests import TaskRequest
from repro.core.scheduler import PlacementService
from repro.obs.metrics import Metrics
from repro.obs.violations import evaluate_violations
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads import GridMixConfig, fill_cluster

from .inputs import (
    arrival_offsets,
    build_lra,
    describe,
    digest,
    lra_mix,
    rng_for,
    task_profile,
)
from .spans import SpanRecorder

__all__ = ["SIZES", "WORKLOADS", "Window", "make_workload", "percentile"]

_perf = time.perf_counter

#: Share of cluster memory taken by background batch containers.
BACKGROUND_FILL = 0.20
#: Populations of one pass, and ``pass_s``: the timed seconds one pass took
#: on a quiet host when the sizes were chosen, which fixes the passes per
#: run (see :meth:`_Workload.passes_for`).  ``smoke`` shrinks populations
#: only: the workloads, their structure and the metric schema stay the same.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "lra_ilp": dict(nodes=500, racks=20, apps=60, small=True, pass_s=4.2),
        "lra_heuristic": dict(nodes=1000, racks=40, apps=40, small=False, pass_s=3.0),
        "sim_tasks": dict(nodes=1000, racks=20, rate=1000, seconds=50, pass_s=2.9),
        "serve_open": dict(nodes=200, racks=8, rate=25.0, seconds=2.0, pass_s=2.0),
    },
    "smoke": {
        "lra_ilp": dict(nodes=60, racks=4, apps=10, small=True, pass_s=0.2),
        "lra_heuristic": dict(nodes=100, racks=4, apps=10, small=False, pass_s=0.2),
        "sim_tasks": dict(nodes=100, racks=4, rate=100, seconds=10, pass_s=0.2),
        "serve_open": dict(nodes=60, racks=4, rate=25.0, seconds=0.4, pass_s=0.2),
    },
}

#: Set-ups made, and timed, at the start of every pass; the last one is
#: used.  A set-up takes 10-35 ms, too short to time only once per pass.
SETUPS_PER_PASS = 3

#: Timings of :func:`reference_kernel` taken before the first pass and after
#: every pass; their median says how fast the host was during the run.
REFERENCE_SAMPLES = 10

#: LRAs per ``timed_place`` call (the paper's scheduling-interval batching).
BATCH = 2
#: Batches of a pass re-solved with the branch-and-bound backend.
BNB_BATCHES = 10
#: Batches of a pass replayed through the other heuristics.
SIDE_BATCHES = 5
ILP_TIME_LIMIT_S = 10.0
ILP_GAP = 0.02
ILP_POOL = 60

#: Simulation: simulated seconds run before timing starts and after the
#: arrivals stop, the LRA cycle, and the lifetime of each LRA.
SIM_WARMUP_S = 10
SIM_DRAIN_S = 20
SIM_CYCLE_S = 5.0
SIM_LRA_LIFETIME_S = 60.0

SERVE_WORKERS = 2
SERVE_SWITCH_INTERVAL_S = 0.0005


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int) -> int:
        self.value += amount
        return self.value & 7


#: Large enough that strided reads miss the processor's caches.
_REFERENCE_TABLE = {i: i for i in range(200_000)}
_REFERENCE_CELLS = [_Cell() for _ in range(200)]


def reference_kernel() -> float:
    """Seconds a fixed piece of interpreter work takes right now: integer
    arithmetic with small-dict writes, strided reads of a large dict, and
    method calls on slotted objects, about a third of the time each."""
    t0 = _perf()
    total = 0
    small: dict[int, int] = {}
    for i in range(20000):
        total += i * i
        small[i & 255] = total
    table = _REFERENCE_TABLE
    size = len(table)
    j = 1
    for _ in range(7000):
        j = (j * 7919 + 13) % size
        total += table[j]
    for i in range(100):
        for cell in _REFERENCE_CELLS:
            total += cell.add(i)
    return _perf() - t0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Pass:
    """One pass over the inputs."""

    #: Wall seconds of every operation, in input order.
    latencies_s: list[float] = field(default_factory=list)
    #: Wall seconds of the timed sections the pass's work is divided by.
    sections_s: list[float] = field(default_factory=list)
    #: Work completed in the timed sections (containers, tasks, requests).
    units: int = 0
    #: Wall seconds of the window this pass used up.
    wall_s: float = 0.0
    #: Digest of the outputs; equal for every pass of one seed.
    fingerprint: str | None = None


@dataclass
class Window:
    """What one measured window produced."""

    #: Every operation of a pass, as its median over the passes.
    latencies_s: list[float] = field(default_factory=list)
    #: Work of one pass, and the sum of its timed sections' medians.
    units: int = 0
    busy_s: float = 0.0
    passes: int = 0
    #: Wall seconds of the timed sections of all passes, and the slowest
    #: single operation among them.
    measured_s: float = 0.0
    latency_max_s: float = 0.0
    #: Timings of :func:`reference_kernel` taken between the passes.
    reference_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    fill_s: list[float] = field(default_factory=list)
    #: Output-check failures; empty means correct.
    errors: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    inputs_digest: str = ""
    #: Per-layer values that repeat exactly for one seed.
    exact: dict[str, float] = field(default_factory=dict)
    #: Per-layer values measured by the workload itself.
    layer: dict[str, float] = field(default_factory=dict)


def check_cluster(state: ClusterState, placements: Mapping[str, str]) -> list[str]:
    """Recount the state from its container map: no node over capacity,
    every given placement present and on an available node."""
    errors: list[str] = []
    used: dict[str, list[int]] = {}
    for placed in state.containers.values():
        total = used.setdefault(placed.node_id, [0, 0])
        total[0] += placed.allocation.resource.memory_mb
        total[1] += placed.allocation.resource.vcores
    for node in state.topology:
        memory_mb, vcores = used.get(node.node_id, (0, 0))
        if memory_mb > node.capacity.memory_mb or vcores > node.capacity.vcores:
            errors.append(f"node {node.node_id} over capacity")
    containers = state.containers
    for container_id, node_id in placements.items():
        placed = containers.get(container_id)
        if placed is None or placed.node_id != node_id:
            errors.append(f"container {container_id} not on {node_id} in state")
        elif not state.topology.node(node_id).available:
            errors.append(f"container {container_id} on unavailable node {node_id}")
    return errors


class _Workload:
    name = ""

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size

    def _pass(self, win: Window, rec: SpanRecorder | None, first: bool) -> Pass:
        """One pass over the inputs; ``first`` marks the pass whose
        repeatable outputs are kept."""
        raise NotImplementedError

    def side(self, win: Window) -> None:
        """Extra untraced measurements that feed per-layer numbers only."""

    @staticmethod
    def _recording(rec: SpanRecorder | None):
        """Spans are recorded only inside the timed sections."""
        return contextlib.nullcontext() if rec is None else rec.recording()

    def passes_for(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: fixed by the sizes, so a faster
        program measures for a shorter time, not over more passes."""
        return max(1, round(seconds / self.size["pass_s"]))

    def run(self, count: int, rec: SpanRecorder | None) -> Window:
        """``count`` passes over the same inputs."""
        win = Window()
        passes: list[Pass] = []
        win.reference_s = [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
        for _ in range(count):
            one = self._pass(win, rec, not passes)
            passes.append(one)
            win.measured_s += one.wall_s
            win.reference_s.extend(
                reference_kernel() for _ in range(REFERENCE_SAMPLES)
            )
        first = passes[0]
        if any(
            (p.fingerprint, p.units, len(p.latencies_s))
            != (first.fingerprint, first.units, len(first.latencies_s))
            for p in passes
        ):
            win.errors.append("passes over the same inputs produced different outputs")
        win.passes = len(passes)
        win.units = first.units
        win.fingerprint = first.fingerprint
        # The lower middle value of an even count: a measured time, and
        # not moved by disturbances that hit half of the passes.
        median = statistics.median_low
        win.latencies_s = [median(op) for op in zip(*(p.latencies_s for p in passes))]
        win.latency_max_s = max(max(p.latencies_s) for p in passes)
        win.busy_s = sum(median(op) for op in zip(*(p.sections_s for p in passes)))
        return win

    def _fresh(self, win: Window, *args):
        """What ``_setup`` builds, after :data:`SETUPS_PER_PASS` timed set-ups."""
        for _ in range(SETUPS_PER_PASS):
            # The previous set-up's garbage would be collected inside this
            # one's timing, or not, depending on the allocation count.
            gc.collect()
            made = self._setup(win, *args)
        return made

    def _cluster(self, win: Window, *, vcores: int = 8, fill: bool = True):
        """Topology, state and background load, each piece timed."""
        size = self.size
        t0 = _perf()
        topology = build_cluster(
            size["nodes"], racks=size["racks"], memory_mb=16 * 1024, vcores=vcores
        )
        t1 = _perf()
        state = ClusterState(topology) if fill else None
        t2 = _perf()
        if fill:
            fill_seed = rng_for(self.seed, self.name, "fill").randrange(2**31)
            fill_cluster(state, BACKGROUND_FILL, config=GridMixConfig(seed=fill_seed))
        t3 = _perf()
        win.build_s.append(t1 - t0)
        if fill:
            win.fill_s.append(t3 - t2)
        return topology, state


class LraBatches(_Workload):
    """Batch placement on a filling cluster; a pass is one fresh cluster.

    Operation: one ``timed_place`` call on a batch of :data:`BATCH` LRAs.
    The timed section of a batch is register + place + commit.
    """

    def __init__(
        self, name: str, seed: int, size: dict, scheduler: Callable[[], object]
    ) -> None:
        super().__init__(seed, size)
        self.name = name
        self.make_scheduler = scheduler
        #: MILP models of the first pass's first batches, for the B&B re-solve.
        self._models: list = []

    def _setup(self, win: Window, scheduler: Callable[[], object]):
        t0 = _perf()
        topology, state = self._cluster(win)
        manager = ConstraintManager(topology)
        apps = lra_mix(
            rng_for(self.seed, self.name),
            self.size["apps"],
            "app",
            small=self.size["small"],
        )
        instance = scheduler()
        win.setup_s.append(_perf() - t0)
        return state, manager, apps, instance

    def _place_batch(self, state, manager, scheduler, batch, now: float):
        """The timed section: returns (result, place seconds, total seconds)."""
        t0 = _perf()
        for request in batch:
            manager.register_application(request)
        t1 = _perf()
        result = scheduler.timed_place(batch, state, manager, now=now)
        t2 = _perf()
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
        for app_id in result.rejected_apps:
            manager.unregister_application(app_id)
        return result, t2 - t1, _perf() - t0

    def _pass(self, win: Window, rec: SpanRecorder | None, first: bool) -> Pass:
        state, manager, apps, scheduler = self._fresh(win, self.make_scheduler)
        one = Pass()
        if first:
            win.inputs_digest = digest(describe(apps))
            self._models = []
        placements: dict[str, str] = {}
        placed_apps = rejected_apps = 0
        for start in range(0, len(apps), BATCH):
            batch = apps[start:start + BATCH]
            with self._recording(rec):
                result, place_s, total_s = self._place_batch(
                    state, manager, scheduler, batch, float(start)
                )
            one.latencies_s.append(place_s)
            one.sections_s.append(total_s)
            one.units += len(result.placements)
            placed_apps += len(result.placed_apps())
            rejected_apps += len(result.rejected_apps)
            placements.update((p.container_id, p.node_id) for p in result.placements)
            if first:
                self._read_ilp(win, scheduler, result)
        one.wall_s = sum(one.sections_s)
        one.fingerprint = state.fingerprint()
        win.attempted += len(apps)
        win.failed += rejected_apps
        if placed_apps + rejected_apps != len(apps):
            win.errors.append(
                f"placed {placed_apps} + rejected {rejected_apps} "
                f"!= submitted {len(apps)}"
            )
        win.errors.extend(check_cluster(state, placements))
        evaluate = evaluate_violations
        if rec is not None:
            evaluate = rec.wrap("obs.violations.evaluate", evaluate)
        with self._recording(rec):
            report = evaluate(state, manager=manager)
        win.exact["obs.violations.violation_fraction"] = report.violation_fraction
        return one

    def _read_ilp(self, win: Window, scheduler, result) -> None:
        """Model size and objective of an ILP batch (no-op for heuristics)."""
        model = getattr(getattr(scheduler, "last_formulation", None), "model", None)
        if model is None:
            return
        sizes = {
            "core.ilp.variables": model.num_variables,
            "core.ilp.constraints": model.num_constraints,
            "core.ilp.objective_sum": result.objective or 0.0,
        }
        for key, value in sizes.items():
            win.exact[key] = win.exact.get(key, 0) + value
        if len(self._models) < BNB_BATCHES:
            self._models.append(model)

    def side(self, win: Window) -> None:
        if self._models:
            self._bnb_resolve(win)
        else:
            self._other_heuristics(win)

    def _bnb_resolve(self, win: Window) -> None:
        """Re-solve the pass's first models with the from-scratch B&B
        backend: the baseline a B&B change will be compared against."""
        try:
            from repro.solver import BnBOptions, solve
        except ImportError:
            return
        layer, exact = win.layer, win.exact
        layer["solver.bnb.solve_s"] = layer["solver.bnb.presolve_s"] = 0.0
        exact["solver.bnb.nodes"] = exact["solver.bnb.lp_solves"] = 0
        options = BnBOptions(time_limit_s=ILP_TIME_LIMIT_S, gap=ILP_GAP)
        for model in self._models:
            t0 = _perf()
            solution = solve(model, backend="bnb", options=options)
            layer["solver.bnb.solve_s"] += _perf() - t0
            stats = solution.stats
            layer["solver.bnb.presolve_s"] += getattr(stats, "time_presolve_s", 0.0)
            exact["solver.bnb.nodes"] += getattr(stats, "nodes_explored", 0)
            exact["solver.bnb.lp_solves"] += getattr(stats, "lp_solves", 0)

    def _other_heuristics(self, win: Window) -> None:
        """The pass's first batches through the other heuristics, each on a
        fresh cluster; results go to the per-layer numbers only."""
        others = {
            "core.heuristics.nc_place_s": "NodeCandidatesScheduler",
            "core.heuristics.serial_place_s": "SerialScheduler",
            "core.jkube.place_s": "JKubeScheduler",
        }
        scratch = Window()
        for metric, class_name in others.items():
            scheduler_class = getattr(repro, class_name, None)
            if scheduler_class is None:
                continue
            state, manager, apps, scheduler = self._setup(scratch, scheduler_class)
            total = 0.0
            for start in range(0, min(len(apps), SIDE_BATCHES * BATCH), BATCH):
                _, place_s, _ = self._place_batch(
                    state, manager, scheduler, apps[start:start + BATCH], float(start)
                )
                total += place_s
            win.layer[metric] = total


class SimTasks(_Workload):
    """Cluster simulation under a continuous task stream; a pass is one
    fresh simulation run for a fixed number of simulated seconds.

    Operation: one simulated second (a heartbeat round over every node,
    the second's arrivals and completions, and every
    :data:`SIM_CYCLE_S`-th second an LRA scheduling cycle).
    """

    name = "sim_tasks"

    def _setup(self, win: Window, rec: SpanRecorder | None):
        t0 = _perf()
        topology, _ = self._cluster(win, vcores=16, fill=False)
        rate = self.size["rate"]
        seconds = SIM_WARMUP_S + self.size["seconds"]
        profile = task_profile(rng_for(self.seed, self.name), seconds * rate)
        config = dict(
            scheduling_interval_s=SIM_CYCLE_S,
            heartbeat_interval_s=1.0,
            horizon_s=1.0e7,
        )
        if "engine" in {f.name for f in dataclasses.fields(SimConfig)}:
            config["engine"] = "ondemand"
        metrics = Metrics()
        sim = ClusterSimulation(
            topology,
            repro.TagPopularityScheduler(),
            config=SimConfig(**config),
            metrics=metrics,
        )
        if hasattr(sim.task_scheduler, "retain_completed"):
            sim.task_scheduler.retain_completed = False
        feeder = _SimFeeder(sim, profile, rate)
        feed = feeder.feed if rec is None else rec.wrap("bench.generator", feeder.feed)
        sim.engine.schedule_periodic(1.0, feed)
        win.setup_s.append(_perf() - t0)
        win.inputs_digest = digest(profile[:rate])
        return sim, metrics, feeder

    def _pass(self, win: Window, rec: SpanRecorder | None, first: bool) -> Pass:
        sim, metrics, feeder = self._fresh(win, rec)
        released = metrics.counter("task_released_total")
        scheduler = sim.task_scheduler
        one = Pass()
        now = 0
        for _ in range(SIM_WARMUP_S):
            now += 1
            sim.run(until=float(now))
        released_before = released.value()
        allocated_before = scheduler.completed_count
        with self._recording(rec):
            for _ in range(self.size["seconds"]):
                now += 1
                t0 = _perf()
                sim.run(until=float(now))
                one.latencies_s.append(_perf() - t0)
        one.sections_s = one.latencies_s
        one.wall_s = sum(one.latencies_s)
        one.units = int(released.value() - released_before)
        one.fingerprint = sim.state.fingerprint()
        if first:
            stat = metrics.timer("task_queue_latency_seconds").stat(queue="default")
            win.exact["taskscheduler.queue_delay_mean_sim_s"] = stat.mean_s
            win.layer["taskscheduler.allocations"] = (
                scheduler.completed_count - allocated_before
            )
            handle = sim.heartbeat_handle
            ticks = getattr(handle, "ticks", handle.fired)
            win.layer["sim.heartbeat_fired_ratio"] = (
                handle.fired / ticks if ticks else 0.0
            )

        # Arrivals end with the profile; let the queue and the last LRA
        # cycle drain, then every submitted task must have completed.
        sim.run(until=float(now + SIM_DRAIN_S))
        unfinished = feeder.tasks - int(released.value())
        unplaced = feeder.lras - len(sim.lra_latencies())
        win.attempted += feeder.tasks + feeder.lras
        win.failed += unfinished + unplaced
        if scheduler.pending_tasks():
            win.errors.append(f"{scheduler.pending_tasks()} tasks still queued")
        leftover = sum(
            1 for c in sim.state.containers.values() if not c.allocation.long_running
        )
        if leftover:
            win.errors.append(f"{leftover} task containers never released")
        win.errors.extend(check_cluster(sim.state, {}))
        return one


class _SimFeeder:
    """Submits each simulated second's arrivals from inside the engine,
    until the task profile is used up."""

    def __init__(self, sim: ClusterSimulation, profile: list, rate: int) -> None:
        self.sim = sim
        self.profile = profile
        self.rate = rate
        self.tasks = 0
        self.lras = 0

    def feed(self, engine) -> None:
        second = int(engine.now)
        sim, rate = self.sim, self.rate
        arrivals = self.profile[(second - 1) * rate:second * rate]
        if not arrivals:
            return
        app_id = f"job-{second % 13}"
        for j, (resource, duration) in enumerate(arrivals):
            sim.submit_task_now(
                TaskRequest(
                    task_id=f"s{second}-{j}",
                    app_id=app_id,
                    resource=resource,
                    duration_s=duration,
                )
            )
        self.tasks += len(arrivals)
        if second % int(SIM_CYCLE_S) == 0:
            sim.submit_lra(
                build_lra("hbase", f"lra-{second}", small=True),
                at=engine.now,
                duration_s=SIM_LRA_LIFETIME_S,
            )
            self.lras += 1


class ServeOpen(_Workload):
    """Open-loop placement requests against an in-process service; a pass
    replays the same arrival schedule against a fresh service.

    Operation: one ``PlacementService.handle`` request, timed from the
    moment it was *due*.  One pacing thread (the caller's) sleeps until each
    due time and hands the request to :data:`SERVE_WORKERS` worker threads.
    """

    name = "serve_open"

    def _setup(self, win: Window):
        t0 = _perf()
        _, state = self._cluster(win)
        service = PlacementService(
            state, repro.TagPopularityScheduler(), retain=False, metrics=Metrics()
        )
        seconds = self.size["seconds"]
        count = max(1, round(self.size["rate"] * seconds))
        rng = rng_for(self.seed, self.name)
        requests = lra_mix(rng, count, "req", small=True)
        offsets = arrival_offsets(rng, count, self.size["rate"])
        win.setup_s.append(_perf() - t0)
        win.inputs_digest = digest(describe(requests) + offsets)
        return state, service, requests, offsets

    def _pass(self, win: Window, rec: SpanRecorder | None, first: bool) -> Pass:
        state, service, requests, offsets = self._fresh(win)
        before = state.fingerprint()
        #: per request: (response, end seconds since start) or a traceback
        outcomes: list = [None] * len(requests)
        late: list[float] = []
        todo: queue.SimpleQueue = queue.SimpleQueue()
        t0 = _perf()

        def worker() -> None:
            while True:
                item = todo.get()
                if item is None:
                    return
                index, due = item
                try:
                    response = service.handle(requests[index], now=due)
                except Exception:  # keep serving; the failure is reported below
                    outcomes[index] = traceback.format_exc()
                else:
                    outcomes[index] = (response, _perf() - t0)

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(SERVE_WORKERS)
        ]
        # The pacing thread must get the interpreter soon after its sleep
        # ends, or requests leave late while a worker computes.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SERVE_SWITCH_INTERVAL_S)
        for thread in threads:
            thread.start()
        with self._recording(rec):
            try:
                for index, due in enumerate(offsets):
                    delay = t0 + due - _perf()
                    if delay > 0:
                        time.sleep(delay)
                    late.append(max(0.0, _perf() - t0 - due))
                    todo.put((index, due))
            finally:
                for _ in threads:
                    todo.put(None)
                for thread in threads:
                    thread.join(timeout=120)
                sys.setswitchinterval(switch_interval)
        if any(thread.is_alive() for thread in threads):
            win.errors.append("a worker thread did not finish")

        one = self._collect(win, state, requests, offsets, outcomes, late, first)
        if state.fingerprint() != before:
            win.errors.append("retain=False service changed the cluster state")
        if service.manager.registered_apps():
            win.errors.append("service left constraints registered")
        win.errors.extend(check_cluster(state, {}))
        return one

    def _collect(
        self, win: Window, state, requests, offsets, outcomes, late, first: bool
    ) -> Pass:
        one = Pass()
        queue_s: list[float] = []
        place_s: list[float] = []
        overhead_s: list[float] = []
        overload = 0
        placed: list[tuple] = []
        topology = state.topology
        for request, due, outcome in zip(requests, offsets, outcomes):
            win.attempted += 1
            if not isinstance(outcome, tuple):
                win.failed += 1
                win.errors.append(f"{request.app_id}: {outcome or 'never handled'}")
                continue
            response, end = outcome
            one.wall_s = max(one.wall_s, end)
            latency = end - due
            one.latencies_s.append(latency)
            queue_s.append(response.queue_s)
            place_s.append(response.place_s)
            overhead_s.append(latency - response.queue_s - response.place_s)
            if not response.placed:
                win.failed += 1
                overload += response.reason == "overload"
                continue
            one.units += 1
            placed.append((response.app_id, sorted(response.nodes.items())))
            if len(response.nodes) != len(request.containers) or not all(
                topology.node(node_id).available for node_id in response.nodes.values()
            ):
                win.errors.append(f"{request.app_id}: bad node list in response")
        one.sections_s = place_s
        one.fingerprint = digest(sorted(placed))
        if first and queue_s:
            win.layer.update({
                "core.scheduler.queue_wait_p50_s": percentile(queue_s, 50),
                "core.scheduler.queue_wait_p99_s": percentile(queue_s, 99),
                "core.scheduler.service_p50_s": percentile(place_s, 50),
                "core.scheduler.overhead_p50_s": percentile(overhead_s, 50),
                "core.scheduler.request_p99_s": percentile(one.latencies_s, 99),
                "bench.generator_late_p99_s": percentile(late, 99),
            })
        win.layer["core.scheduler.rejected_overload"] = (
            win.layer.get("core.scheduler.rejected_overload", 0) + overload
        )
        return one


def _ilp_scheduler():
    return repro.IlpScheduler(
        max_candidate_nodes=ILP_POOL,
        time_limit_s=ILP_TIME_LIMIT_S,
        mip_rel_gap=ILP_GAP,
    )


WORKLOADS: dict[str, Callable[[int, dict], _Workload]] = {
    "lra_ilp": lambda seed, size: LraBatches("lra_ilp", seed, size, _ilp_scheduler),
    "lra_heuristic": lambda seed, size: LraBatches(
        "lra_heuristic", seed, size, repro.TagPopularityScheduler
    ),
    "sim_tasks": SimTasks,
    "serve_open": ServeOpen,
}


def make_workload(name: str, seed: int, *, smoke: bool = False) -> _Workload:
    return WORKLOADS[name](seed, SIZES["smoke" if smoke else "full"][name])
