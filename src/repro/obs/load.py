"""Deterministic load generation for the placement hot path.

Placement latency *under offered load* is measured in process, the way
the paper measures Fig. 11 ("a simulator that executes Medea with
simulated machines, merely ignoring RPCs"): this module paces seeded
requests into a :class:`~repro.core.scheduler.PlacementService` and folds
every request latency into a
:class:`~repro.obs.hist.LatencyHistogram`.

The load is **open loop**: arrivals follow a seeded schedule (Poisson,
bursty on/off, or uniform) regardless of completions, like real tenants
submitting apps.  Latency is measured from the *scheduled* arrival, so a
stalled scheduler inflates the tail instead of silently throttling the
generator: open-loop measurement is immune to coordinated omission by
construction.

A **sweep** steps offered load over a rate ladder, records one histogram
per step, and :func:`detect_knee` finds the saturation knee: the first
step whose achieved throughput falls below ``efficiency ×`` offered, or
whose p99 blows past ``latency_blowup ×`` the unloaded baseline.  Results
are a sorted-key JSON document (:func:`sweep_to_json`) or a page
(:func:`sweep_view`) rendered as text or HTML by :mod:`repro.obs.view`.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..cluster.resources import Resource
from ..core.requests import ContainerRequest, LRARequest
from .hist import LatencyHistogram
from .view import Lines, SeriesGroup, Table, View

__all__ = [
    "LOADGEN_SCHEMA",
    "poisson_arrivals",
    "uniform_arrivals",
    "burst_arrivals",
    "build_arrivals",
    "RequestTemplate",
    "StepResult",
    "SweepResult",
    "run_step",
    "run_sweep",
    "detect_knee",
    "sweep_to_obj",
    "sweep_to_json",
    "sweep_view",
]

#: Schema tag of the ``repro loadgen --json`` document.
LOADGEN_SCHEMA = "medea.loadgen/1"

#: Saturation-knee thresholds (see :func:`detect_knee`).
KNEE_EFFICIENCY = 0.9
KNEE_LATENCY_BLOWUP = 5.0


# -- arrival schedules ---------------------------------------------------------


def poisson_arrivals(
    rate_rps: float, count: int, rng: random.Random
) -> list[float]:
    """``count`` cumulative arrival offsets (seconds) of a Poisson process
    at ``rate_rps`` — i.i.d. exponential inter-arrivals, seeded rng."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    t = 0.0
    out: list[float] = []
    for _ in range(count):
        t += rng.expovariate(rate_rps)
        out.append(t)
    return out


def uniform_arrivals(rate_rps: float, count: int) -> list[float]:
    """Evenly spaced arrivals at ``rate_rps``."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    return [(i + 1) / rate_rps for i in range(count)]


def burst_arrivals(
    rate_rps: float,
    count: int,
    rng: random.Random,
    *,
    period_s: float = 2.0,
    duty: float = 0.25,
) -> list[float]:
    """Bursty on/off arrivals averaging ``rate_rps``.

    Real LRA submission streams are bursty, not uniform (the IN2P3
    workload analysis in PAPERS.md): each ``period_s`` window is ``duty``
    fraction *on* at rate ``rate_rps / duty`` and otherwise silent.
    Implemented exactly: a Poisson process is generated in compressed
    "on-time" and each on-window is re-expanded onto the real clock, so
    the schedule is deterministic for a given rng.
    """
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    on_s = period_s * duty
    out: list[float] = []
    for t_on in poisson_arrivals(rate_rps / duty, count, rng):
        window, offset = divmod(t_on, on_s)
        out.append(window * period_s + offset)
    return out


def build_arrivals(
    arrival: str, rate_rps: float, count: int, rng: random.Random
) -> list[float]:
    """Dispatch on the arrival-process name (poisson / burst / uniform)."""
    if arrival == "poisson":
        return poisson_arrivals(rate_rps, count, rng)
    if arrival == "burst":
        return burst_arrivals(rate_rps, count, rng)
    if arrival == "uniform":
        return uniform_arrivals(rate_rps, count)
    raise ValueError(f"unknown arrival process {arrival!r}")


# -- request templates ---------------------------------------------------------


@dataclass(frozen=True)
class RequestTemplate:
    """Seeded factory of generic, constraint-free LRA submissions."""

    containers: int = 4
    memory_mb: int = 1024
    vcores: int = 1
    prefix: str = "ld"

    def build(self, index: int) -> LRARequest:
        app_id = f"{self.prefix}-{index:06d}"
        return LRARequest(
            app_id,
            [
                ContainerRequest(
                    container_id=f"{app_id}-c{i}",
                    resource=Resource(
                        memory_mb=self.memory_mb, vcores=self.vcores
                    ),
                    tags=frozenset(),
                )
                for i in range(self.containers)
            ],
        )

    def to_obj(self) -> dict[str, Any]:
        return {
            "containers": self.containers,
            "memory_mb": self.memory_mb,
            "vcores": self.vcores,
            "prefix": self.prefix,
        }


# -- step execution ------------------------------------------------------------


@dataclass
class StepResult:
    """One offered-load step of a sweep."""

    offered_rps: float
    requests: int
    #: Realized offered rate: ``requests / last scheduled arrival``.  A
    #: Poisson schedule's nominal rate has O(1/sqrt(N)) sampling noise;
    #: the knee test compares achieved throughput against this, not the
    #: nominal, so an unloaded step can't trip the efficiency threshold
    #: just because its schedule came out long.
    effective_rps: float = 0.0
    placed: int = 0
    rejected: int = 0
    #: Always 0 in process (``handle`` answers every request); the key
    #: stays in the ``medea.loadgen/1`` schema.
    errors: int = 0
    #: Wall seconds from first arrival to last completion.
    duration_s: float = 0.0
    #: Offered seconds: the last scheduled arrival offset.
    offered_s: float = 0.0
    achieved_rps: float = 0.0
    hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def completed(self) -> int:
        return self.placed + self.rejected

    def to_obj(self) -> dict[str, Any]:
        return {
            "achieved_rps": round(self.achieved_rps, 6),
            "duration_s": round(self.duration_s, 6),
            "effective_rps": round(self.effective_rps, 6),
            "errors": self.errors,
            "hist": self.hist.to_obj(),
            "latency": self.hist.summary(),
            "mode": "open",
            "offered_rps": self.offered_rps,
            "placed": self.placed,
            "rejected": self.rejected,
            "requests": self.requests,
        }


def _effective_rate(arrivals: Sequence[float], offered_rps: float) -> float:
    """The rate the schedule actually offered."""
    if not arrivals or arrivals[-1] <= 0:
        return offered_rps
    return round(len(arrivals) / arrivals[-1], 6)


def _run_open_loop(
    service,
    template: RequestTemplate,
    arrivals: Sequence[float],
    *,
    offered_rps: float,
    concurrency: int,
    index_base: int,
    time_base: float,
) -> StepResult:
    """One paced open-loop step; request ``i`` is stamped with the logical
    clock ``time_base + arrivals[i]``."""
    from concurrent.futures import ThreadPoolExecutor

    count = len(arrivals)
    step = StepResult(
        offered_rps=offered_rps,
        requests=count,
        effective_rps=_effective_rate(arrivals, offered_rps),
        offered_s=arrivals[-1] if arrivals else 0.0,
    )
    lock = threading.Lock()
    t0 = time.perf_counter()

    def issue(index: int, arrival: float) -> None:
        request = template.build(index_base + index)
        placed = service.handle(request, now=time_base + arrival).placed
        latency = time.perf_counter() - (t0 + arrival)
        with lock:
            # Arrival-anchored latency: queueing delay behind a slow
            # scheduler (or an exhausted worker pool) counts against the
            # tail instead of being coordinated away.
            step.hist.record(latency)
            if placed:
                step.placed += 1
            else:
                step.rejected += 1

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        futures = []
        for i, arrival in enumerate(arrivals):
            delay = t0 + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(issue, i, arrival))
        for future in futures:
            future.result()
    step.duration_s = time.perf_counter() - t0
    if step.duration_s > 0:
        step.achieved_rps = round(step.completed / step.duration_s, 6)
    return step


def run_step(
    service,
    template: RequestTemplate,
    *,
    offered_rps: float,
    requests: int,
    arrival: str = "poisson",
    concurrency: int = 16,
    seed: int = 0,
    index_base: int = 0,
    time_base: float = 0.0,
) -> StepResult:
    """Run one offered-load step against ``service``, a
    :class:`~repro.core.scheduler.PlacementService`.  ``index_base`` and
    ``time_base`` continue a sweep's request ids and logical clock."""
    rng = random.Random((seed << 16) ^ hash(round(offered_rps * 1000)) & 0xFFFF)
    arrivals = build_arrivals(arrival, offered_rps, requests, rng)
    return _run_open_loop(
        service,
        template,
        arrivals,
        offered_rps=offered_rps,
        concurrency=concurrency,
        index_base=index_base,
        time_base=time_base,
    )


# -- sweeps and the saturation knee -------------------------------------------


@dataclass
class SweepResult:
    """A full offered-load ladder with per-step histograms."""

    steps: list[StepResult]
    config: dict[str, Any]
    knee: dict[str, Any] | None = None


def detect_knee(
    steps: Sequence[StepResult],
    *,
    efficiency: float = KNEE_EFFICIENCY,
    latency_blowup: float = KNEE_LATENCY_BLOWUP,
) -> dict[str, Any] | None:
    """Find the saturation knee of a rate ladder.

    The knee is the first step that either (a) achieves less than
    ``efficiency ×`` its *realized* offered rate (throughput collapse —
    realized, not nominal, so Poisson schedule noise can't fake a knee)
    or (b) shows p99 latency beyond ``latency_blowup ×`` the first step's
    p99 (queueing blow-up; only applied when the baseline p99 is
    nonzero).  Returns ``None`` while the ladder never saturates.
    ``capacity_rps`` is the last pre-knee achieved throughput — the
    number to size admission control against.
    """
    if not steps:
        return None
    base_p99 = steps[0].hist.quantile(99)
    for i, step in enumerate(steps):
        reason = None
        offered = step.effective_rps or step.offered_rps
        if step.completed and step.achieved_rps < efficiency * offered:
            reason = "throughput"
        elif (
            base_p99 > 0.0
            and i > 0
            and step.hist.quantile(99) > latency_blowup * base_p99
        ):
            reason = "latency"
        if reason is not None:
            capacity = (
                steps[i - 1].achieved_rps if i > 0 else step.achieved_rps
            )
            return {
                "step": i,
                "offered_rps": step.offered_rps,
                "achieved_rps": step.achieved_rps,
                "p99_s": step.hist.quantile(99),
                "reason": reason,
                "capacity_rps": capacity,
            }
    return None


def run_sweep(
    service,
    template: RequestTemplate,
    *,
    rates: Sequence[float],
    requests_per_step: int,
    arrival: str = "poisson",
    concurrency: int = 16,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Step offered load over ``rates`` and analyse the knee."""
    steps: list[StepResult] = []
    index_base = 0
    time_base = 0.0
    for rate in rates:
        step = run_step(
            service,
            template,
            offered_rps=rate,
            requests=requests_per_step,
            arrival=arrival,
            concurrency=concurrency,
            seed=seed,
            index_base=index_base,
            time_base=time_base,
        )
        index_base += step.requests
        time_base += step.offered_s
        steps.append(step)
        if progress is not None:
            pct = step.hist.percentiles()
            progress(
                f"rate={rate:g}rps achieved={step.achieved_rps:g}rps "
                f"p50={pct['p50_s'] * 1e3:.2f}ms "
                f"p99={pct['p99_s'] * 1e3:.2f}ms"
            )
    config = {
        "arrival": arrival,
        "concurrency": concurrency,
        "mode": "open",
        "rates": [float(r) for r in rates],
        "requests_per_step": requests_per_step,
        "seed": seed,
        "target": f"in-process {type(service.scheduler).__name__}",
        "template": template.to_obj(),
    }
    return SweepResult(
        steps=steps, config=config, knee=detect_knee(steps)
    )


# -- output --------------------------------------------------------------------


def sweep_to_obj(sweep: SweepResult) -> dict[str, Any]:
    """The ``--json`` document: sorted-key and schema-tagged.  Wall-clock
    measurements are never byte-stable, so ``deterministic`` is false."""
    return {
        "config": sweep.config,
        "deterministic": False,
        "knee": sweep.knee,
        "schema": LOADGEN_SCHEMA,
        "steps": [s.to_obj() for s in sweep.steps],
    }


def sweep_to_json(sweep: SweepResult) -> str:
    return json.dumps(
        sweep_to_obj(sweep), sort_keys=True, separators=(",", ":")
    ) + "\n"


def _curve(points: list[list[float]]) -> dict[str, Any]:
    ys = [y for _, y in points]
    return {"points": points, "min": min(ys), "mean": sum(ys) / len(ys),
            "max": max(ys), "last": ys[-1]}


def sweep_view(sweep: SweepResult) -> View:
    """The latency-under-load page: the knee verdict, p50/p99 latency
    curves over achieved throughput (palette slot 1), achieved vs offered
    throughput (slot 2) and the per-step table."""
    knee = sweep.knee
    if knee is None:
        knee_line = "no saturation knee detected (ladder never saturated)"
    else:
        knee_line = (
            f"* at {knee['offered_rps']:g} rps offered ({knee['reason']}): "
            f"capacity ≈ {knee['capacity_rps']:g} rps, "
            f"p99 {knee['p99_s'] * 1e3:.2f}ms"
        )
    latency: dict[str, Any] = {}
    throughput: dict[str, Any] = {}
    if sweep.steps:
        for q in (50, 99):
            latency[f"p{q} ms"] = _curve(
                [[s.achieved_rps, s.hist.quantile(q) * 1e3] for s in sweep.steps]
            )
        throughput["achieved rps"] = _curve(
            [[s.offered_rps, s.achieved_rps] for s in sweep.steps]
        )
    rows = []
    for i, step in enumerate(sweep.steps):
        pct = step.hist.percentiles()
        rows.append([
            ("*" if knee is not None and i == knee["step"] else "")
            + f"{step.offered_rps:g}",
            f"{step.achieved_rps:g}",
            step.requests,
            step.placed,
            step.rejected,
            step.errors,
            f"{pct['p50_s'] * 1e3:.3f}",
            f"{pct['p95_s'] * 1e3:.3f}",
            f"{pct['p99_s'] * 1e3:.3f}",
        ])
    config = sweep.config
    return View(
        "repro loadgen — latency under load",
        [f"loadgen sweep — {config.get('mode')} loop, {config.get('arrival')} "
         f"arrivals, target {config.get('target')}"],
        [
            Lines("Saturation knee", [knee_line]),
            SeriesGroup("Latency (ms) vs achieved throughput (rps)", latency,
                        x_unit="rps"),
            SeriesGroup("Achieved vs offered throughput (rps)", throughput,
                        slot=2, x_unit="rps"),
            Table(
                "Steps",
                ["offered rps", "achieved", "requests", "placed", "rejected",
                 "errors", "p50 ms", "p95 ms", "p99 ms"],
                rows,
            ),
        ],
    )
