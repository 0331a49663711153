"""Command-line interface: ``python -m repro.cli <command>``.

Eight commands, each a thin wrapper over the library:

* ``table1`` — print the paper's scheduler capability matrix.
* ``parse``  — validate a constraint written in the paper's notation and
  echo its canonical form.
* ``compare`` — place an HBase population with every scheduler and print a
  violations / fragmentation / latency table.
* ``simulate`` — run a mixed LRA + batch workload through the two-scheduler
  simulation and report placement quality and task latency.
* ``dashboard`` — the one reader of a single run: aggregate a trace into
  per-tick time series, replay it against its recorded state hashes,
  judge SLO rules, profile its spans and critical paths, count its events
  by kind, and render a terminal report (optionally ``--html`` / ``--json``
  artifacts and a ``--collapsed`` stack file for flamegraph.pl /
  speedscope).  Also accepts a streaming ``ROLLUP_*.json`` document: it
  holds the same summary, folded live, so its dashboard is the trace's.
* ``diff`` — did two recorded traces make the same decisions?  Structural
  first-divergence localization, causal placement-flip explanations from
  decision audits, and deterministic series / span-count deltas;
  ``--fail-on-divergence`` turns it into a CI gate.
* ``loadgen`` — pace seeded open-loop requests into an in-process
  placement service (any ``--scheduler`` of ``simulate``) and sweep
  offered rates into a latency-vs-throughput curve.
* ``watch`` — poll a live telemetry endpoint's ``/snapshot`` into a
  refreshing terminal view (retries with capped exponential backoff while
  the endpoint comes up).

Exit codes are uniform across commands (the :data:`EXIT_OK` family):
``0`` success, ``1`` unreadable/invalid input data or a runtime failure,
``2`` usage errors (argparse's convention), ``3`` a CI gate tripped
(``dashboard --fail-on-breach``, ``diff --fail-on-divergence``).

Observability: ``compare``, ``simulate`` and ``loadgen`` run inside one
:class:`~repro.obs.session.ObsSession` (``loadgen`` takes its settings
from the variables alone).  ``--trace-out FILE`` (or
``MEDEA_TRACE=1`` with ``MEDEA_TRACE_OUT``) records the JSONL event trace
and prints a metrics summary after the run; ``--trace-sample`` (or
``MEDEA_TRACE_SAMPLE``) samples it deterministically (e.g.
``"dispatch=0.01,task=0.1,seed=7"``); ``--serve PORT`` (or
``MEDEA_SERVE``) serves ``/metrics``, ``/healthz`` and ``/snapshot`` for the
duration of the run; ``--rollup FILE`` (or ``MEDEA_ROLLUP``) streams the
run's dashboard summary to disk as a bounded rollup document;
``--watchdog {warn,abort}`` (or ``MEDEA_WATCHDOG``) arms the online
invariant monitors.  One rule for all five: a flag that is given wins
over its variable.  All three commands check that the trace and rollup
paths are writable before any work starts.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_DATA_ERROR",
    "EXIT_USAGE",
    "EXIT_GATE",
]

#: ``--scheduler`` choices of ``simulate`` and ``loadgen``, in
#: ``compare``'s row order.
SCHEDULERS = ("ilp", "nc", "tp", "serial", "jkube", "jkube++", "unaware")

# -- exit-code semantics ------------------------------------------------------
#: Command completed successfully.
EXIT_OK = 0
#: Input data was unreadable/invalid, or the run itself failed.
EXIT_DATA_ERROR = 1
#: Command-line usage error (argparse exits with this itself).
EXIT_USAGE = 2
#: A CI gate tripped: dashboard --fail-on-breach, diff --fail-on-divergence.
#: Distinct from EXIT_DATA_ERROR so CI can tell "the check ran and failed"
#: from "the check could not run".
EXIT_GATE = 3

#: Range of each numeric size flag, per command: (flag, "op bound").
_FLAG_RANGES = {
    "compare": (("nodes", ">= 1"), ("racks", ">= 1"), ("instances", ">= 0"),
                ("max_rs_per_node", ">= 1")),
    "simulate": (("nodes", ">= 1"), ("horizon", "> 0"), ("lras", ">= 0"),
                 ("tasks", ">= 0")),
    "loadgen": (("rate", "> 0"), ("requests", ">= 1"), ("concurrency", ">= 1"),
                ("nodes", ">= 1"), ("racks", ">= 1"), ("containers", ">= 1")),
}


def _out_of_range(args: argparse.Namespace) -> bool:
    """Print one ``<command>: --flag must be …`` line for the first size
    flag of :data:`_FLAG_RANGES` outside its range or not finite (an
    ``inf`` horizon never ends, an ``inf`` rate cannot pace)."""
    for flag, rule in _FLAG_RANGES.get(args.command, ()):
        op, bound = rule.split()
        value = getattr(args, flag)
        if not (value > float(bound) if op == ">" else value >= float(bound)):
            problem = rule
        elif not math.isfinite(value):
            problem = "finite"
        else:
            continue
        print(f"{args.command}: --{flag.replace('_', '-')} must be {problem}",
              file=sys.stderr)
        return True
    return False


def _add_live_plane_args(p: argparse.ArgumentParser) -> None:
    """Flags shared by the run commands (``compare`` / ``simulate``)."""
    p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /snapshot on this port for the "
             "duration of the run (0 picks an ephemeral port)",
    )
    p.add_argument(
        "--rollup", metavar="FILE", default=None,
        help="stream the run's dashboard summary (series, replay, SLO, "
             "span profile, critical paths + self-telemetry) to this JSON "
             "file, atomically rewritten during the run",
    )
    p.add_argument(
        "--trace-sample", metavar="SPEC", default=None,
        help="deterministic trace sampling policy, e.g. "
             "'dispatch=0.01,task=0.1,seed=7' (kept lifecycles stay "
             "complete; protected kinds are never dropped)",
    )


def build_parser() -> argparse.ArgumentParser:
    from .version import get_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Medea (EuroSys 2018) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {get_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 capability matrix")

    p_parse = sub.add_parser("parse", help="validate a paper-notation constraint")
    p_parse.add_argument("constraint", help='e.g. "{storm, {hb & mem, 1, inf}, node}"')

    p_compare = sub.add_parser("compare", help="compare all schedulers on one workload")
    p_compare.add_argument("--nodes", type=int, default=60)
    p_compare.add_argument("--racks", type=int, default=6)
    p_compare.add_argument("--instances", type=int, default=8)
    p_compare.add_argument("--max-rs-per-node", type=int, default=3)
    p_compare.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record the structured event trace to this JSONL file",
    )
    p_compare.add_argument(
        "--diff", action="store_true",
        help="run every scheduler with decision audits on and print a "
             "pairwise structural/causal diff of each scheduler's "
             "placement stream against the first (MEDEA-ILP)",
    )
    _add_live_plane_args(p_compare)

    p_sim = sub.add_parser("simulate", help="run a mixed-workload simulation")
    p_sim.add_argument("--nodes", type=int, default=40)
    p_sim.add_argument("--horizon", type=float, default=90.0)
    p_sim.add_argument("--lras", type=int, default=3)
    p_sim.add_argument("--tasks", type=int, default=100)
    p_sim.add_argument(
        "--seed", type=int, default=5,
        help="workload-generator seed (default 5); same seed + same knobs "
             "=> byte-identical canonical trace",
    )
    p_sim.add_argument(
        "--scheduler", default="ilp",
        choices=SCHEDULERS,
        help="LRA scheduler to drive the simulation with (default ilp)",
    )
    p_sim.add_argument(
        "--audit", action="store_true",
        help="record scheduler decision audits (scheduler.audit events) "
             "so 'repro diff' can explain placement flips causally",
    )
    p_sim.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record the structured event trace to this JSONL file",
    )
    p_sim.add_argument(
        "--watchdog", choices=("warn", "abort"), default=None,
        help="run online invariant checks every heartbeat; 'abort' exits "
             "non-zero on the first trip",
    )
    _add_live_plane_args(p_sim)

    p_dash = sub.add_parser(
        "dashboard",
        help="timeline, replay, SLO, span profile and critical paths of a "
             "trace file or a streaming ROLLUP_*.json document",
    )
    p_dash.add_argument(
        "trace_file", help="path to the JSONL trace or ROLLUP_*.json"
    )
    p_dash.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the dashboard summary JSON to this file",
    )
    p_dash.add_argument(
        "--html", metavar="FILE", default=None,
        help="write a self-contained HTML report to this file",
    )
    p_dash.add_argument(
        "--slo", metavar="FILE", default=None,
        help="JSON file with SLO rules (default: built-in smoke thresholds)",
    )
    p_dash.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit non-zero when any SLO rule fails or the replay diverges",
    )
    p_dash.add_argument(
        "--collapsed", metavar="FILE", default=None,
        help="write collapsed-stack lines (flamegraph.pl / speedscope input); "
             "needs a JSONL trace",
    )
    p_dash.add_argument(
        "--weight", choices=("time", "count"), default="time",
        help="collapsed-stack weight: self-time µs (default) or the "
             "deterministic sample count",
    )

    p_diff = sub.add_parser(
        "diff",
        help="did two recorded traces make the same decisions? IDENTICAL / "
             "EQUIVALENT / DIVERGED@tick / INCOMPARABLE, with causal "
             "explanations",
    )
    p_diff.add_argument("trace_a", help="first run's JSONL trace")
    p_diff.add_argument("trace_b", help="second run's JSONL trace")
    p_diff.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full diff report JSON (sorted keys) to this file",
    )
    p_diff.add_argument(
        "--html", metavar="FILE", default=None,
        help="write a self-contained HTML diff report to this file",
    )
    p_diff.add_argument(
        "--context", type=int, default=None, metavar="N",
        help="structural events of context around the first divergence "
             "(default 5)",
    )
    p_diff.add_argument(
        "--fail-on-divergence", action="store_true",
        help=f"exit {EXIT_GATE} when the verdict is DIVERGED (CI gate); "
             f"INCOMPARABLE always exits {EXIT_DATA_ERROR}",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive the placement hot path with seeded load; sweep offered "
             "rates into a latency-vs-throughput curve",
    )
    p_load.add_argument(
        "--arrival", choices=("poisson", "burst", "uniform"),
        default="poisson", help="arrival process (default poisson)",
    )
    p_load.add_argument(
        "--rate", type=float, default=50.0, metavar="RPS",
        help="offered load for a single-step run (default 50)",
    )
    p_load.add_argument(
        "--sweep", default=None, metavar="R1,R2,...",
        help="comma-separated offered-rate ladder in rps (overrides --rate)",
    )
    p_load.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="requests per step (default 200)",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=16, metavar="N",
        help="worker pool size (default 16)",
    )
    p_load.add_argument("--seed", type=int, default=0,
                        help="arrival-schedule seed (default 0)")
    p_load.add_argument(
        "--nodes", type=int, default=100,
        help="cluster size (default 100)",
    )
    p_load.add_argument("--racks", type=int, default=4,
                        help="rack count (default 4)")
    p_load.add_argument(
        "--scheduler", default="nc", choices=SCHEDULERS,
        help="scheduler behind the service (default nc)",
    )
    p_load.add_argument(
        "--containers", type=int, default=4,
        help="containers per generated LRA request (default 4)",
    )
    p_load.add_argument(
        "--max-pending", type=int, default=128, metavar="N",
        help="admission limit of the service (default 128)",
    )
    p_load.add_argument(
        "--json", dest="json_out", default=None, metavar="FILE",
        help="write the sorted-key loadgen document ('-' for stdout)",
    )
    p_load.add_argument(
        "--html", dest="html_out", default=None, metavar="FILE",
        help="write a latency-vs-throughput HTML report",
    )

    p_watch = sub.add_parser(
        "watch",
        help="poll a live telemetry endpoint into a refreshing terminal view",
    )
    p_watch.add_argument(
        "target",
        help="port, host:port, or URL of a --serve / MEDEA_SERVE endpoint",
    )
    p_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    p_watch.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N frames (default: poll until interrupted)",
    )
    p_watch.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen between polls",
    )
    p_watch.add_argument(
        "--retry-for", type=float, default=10.0, metavar="SECONDS",
        help="keep retrying an unreachable endpoint with capped "
             "exponential backoff for this long before giving up "
             "(default 10; 0 fails on the first refused connection)",
    )
    return parser


def _cmd_table1() -> int:
    from .core.capabilities import render_table1

    print(render_table1())
    return EXIT_OK


def _cmd_parse(text: str) -> int:
    from .core.dsl import ConstraintSyntaxError, format_constraint, parse_constraint

    try:
        constraint = parse_constraint(text)
    except ConstraintSyntaxError as exc:
        print(f"invalid constraint: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    tc = constraint.tag_constraints[0]
    if tc.is_affinity():
        kind = "affinity"
    elif tc.is_anti_affinity():
        kind = "anti-affinity"
    else:
        kind = "cardinality"
    print(format_constraint(constraint))
    print(f"kind: {kind}; scope: {constraint.node_group}")
    return EXIT_OK


def _cmd_compare(
    nodes: int, racks: int, instances: int, max_rs: int,
    diff_pairwise: bool = False,
) -> int:
    import time as _time

    from . import ClusterState, ConstraintManager, build_cluster, evaluate_violations
    from .obs.spans import span
    from .reporting import render_table
    from .workloads import hbase_population

    schedulers = [_make_sim_scheduler(name, nodes) for name in SCHEDULERS]
    population = hbase_population(instances, max_rs_per_node=max_rs)
    rows = []
    events_by_scheduler: dict[str, list[dict]] = {}
    for scheduler in schedulers:
        if diff_pairwise:
            # Audit every decision so the pairwise diff below can explain
            # placement flips causally, not just localize them.
            scheduler.audit_enabled = True
        topology = build_cluster(nodes, racks=racks, memory_mb=16 * 1024, vcores=8)
        state = ClusterState(topology)
        manager = ConstraintManager(topology)
        run_events: list[dict] = []
        with span(f"cli.compare:{scheduler.name}"):
            start = _time.perf_counter()
            cycle = 0
            for index in range(0, len(population), 2):
                batch = population[index:index + 2]
                for request in batch:
                    manager.register_application(request)
                result = scheduler.place(batch, state, manager)
                for p in result.placements:
                    state.allocate(
                        p.container_id, p.node_id, p.resource, p.tags, p.app_id
                    )
                if diff_pairwise:
                    run_events.extend(_placement_cycle_events(
                        cycle, batch, result, seq_base=len(run_events)
                    ))
                cycle += 1
            elapsed_ms = (_time.perf_counter() - start) * 1000
        if diff_pairwise:
            run_events.append({
                "kind": "sim.state_hash", "seq": len(run_events),
                "time": float(cycle),
                "data": {"hash": state.fingerprint()},
            })
            events_by_scheduler[scheduler.name] = run_events
        report = evaluate_violations(state, manager=manager)
        rows.append([
            scheduler.name,
            f"{report.violating_containers}/{report.subject_containers}",
            100 * state.fragmented_node_fraction(),
            state.memory_utilization_cv(),
            f"{elapsed_ms:.0f}ms",
        ])
    print(render_table(
        ["scheduler", "violations", "frag %", "util CV", "latency"], rows
    ))
    if diff_pairwise:
        _print_pairwise_diffs(schedulers[0].name, events_by_scheduler)
    return EXIT_OK


def _placement_cycle_events(
    cycle: int, batch, result, *, seq_base: int
) -> list[dict]:
    """Synthesize the canonical structural events of one batch-placement
    cycle (the same vocabulary a simulation trace uses), so the diff
    plane can align two schedulers' decision streams.  Scheduler names
    are deliberately left out of the payloads — the diff should localize
    decision differences, not the label."""
    t = float(cycle)
    events: list[dict] = []

    def emit(kind: str, data: dict) -> None:
        events.append({
            "kind": kind, "seq": seq_base + len(events), "time": t,
            "data": data,
        })

    emit("cycle.start", {"batch": sorted(r.app_id for r in batch)})
    if result.audit is not None:
        audit_obj = result.audit.to_dict()
        audit_obj.pop("scheduler", None)
        emit("scheduler.audit", audit_obj)
    by_app: dict[str, list] = {}
    for p in result.placements:
        by_app.setdefault(p.app_id, []).append(p)
    for app_id in sorted(by_app):
        placements = by_app[app_id]
        emit("lra.place", {
            "app_id": app_id,
            "containers": len(placements),
            "placements": sorted(
                [p.container_id, p.node_id] for p in placements
            ),
        })
    for app_id in sorted(result.rejected_apps):
        emit("lra.reject", {"app_id": app_id})
    emit("cycle.end", {
        "placed": sorted(by_app),
        "rejected": sorted(result.rejected_apps),
    })
    return events


def _print_pairwise_diffs(
    reference: str, events_by_scheduler: dict[str, list[dict]]
) -> None:
    from .obs.diff import diff_events

    ref_events = events_by_scheduler[reference]
    print()
    print(f"pairwise placement diff vs {reference}:")
    for name, events in events_by_scheduler.items():
        if name == reference:
            continue
        report = diff_events(
            ref_events, events, label_a=reference, label_b=name
        )
        flips = report.placements.get("flipped", 0)
        print(f"  {name}: {report.headline()} — {report.reason}; "
              f"{flips} placements flipped")
        if report.flips:
            flip = report.flips[0]
            print(f"    first flip: {flip.container_id} "
                  f"({flip.app_id or 'task'}) — {reference}:{flip.node_a} "
                  f"vs {name}:{flip.node_b}")
            for why in flip.explanation[:3]:
                print(f"      - {why}")


def _make_sim_scheduler(name: str, nodes: int):
    """Instantiate one of :data:`SCHEDULERS` (``simulate`` / ``loadgen
    --scheduler``, and every row of ``compare``).

    The default ILP configuration is byte-for-byte the pre-flag behaviour
    (candidate cap, time limit, MIP gap), so traces recorded before the
    flag existed still reproduce."""
    from . import (
        ConstraintUnawareScheduler,
        JKubePlusPlusScheduler,
        JKubeScheduler,
        NodeCandidatesScheduler,
        SerialScheduler,
        TagPopularityScheduler,
    )

    if name == "ilp":
        from .core.ilp_scheduler import IlpScheduler

        return IlpScheduler(max_candidate_nodes=min(nodes, 60),
                            time_limit_s=5.0, mip_rel_gap=0.02)
    if name == "nc":
        return NodeCandidatesScheduler()
    if name == "tp":
        return TagPopularityScheduler()
    if name == "serial":
        return SerialScheduler()
    if name == "jkube":
        return JKubeScheduler()
    if name == "jkube++":
        return JKubePlusPlusScheduler()
    if name == "unaware":
        return ConstraintUnawareScheduler(seed=11)
    raise ValueError(f"unknown scheduler {name!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import build_cluster, evaluate_violations
    from .apps import hbase_instance, tensorflow_instance
    from .obs.stats import BoxStats
    from .obs.watchdog import WatchdogError
    from .sim import ClusterSimulation, SimConfig
    from .workloads import GridMixConfig, generate_tasks

    nodes, horizon = args.nodes, args.horizon
    lras, tasks = args.lras, args.tasks
    topology = build_cluster(nodes, racks=max(2, nodes // 10),
                             memory_mb=16 * 1024, vcores=8)
    scheduler = _make_sim_scheduler(args.scheduler, nodes)
    if args.audit:
        scheduler.audit_enabled = True
    sim = ClusterSimulation(
        topology,
        scheduler,
        config=SimConfig(scheduling_interval_s=10.0, horizon_s=horizon),
    )
    for i in range(lras):
        template = hbase_instance if i % 2 == 0 else tensorflow_instance
        sim.submit_lra(template(f"lra-{i}"), at=2.0 + 11.0 * i)
    for arrival, task in generate_tasks(GridMixConfig(seed=args.seed),
                                        count=tasks):
        if arrival < horizon:
            sim.submit_task(task, at=arrival)
    def report_trip(trip) -> None:
        print(
            f"simulate: watchdog tripped at t={trip.time}: "
            f"{trip.check}: {trip.summary()}",
            file=sys.stderr,
        )

    try:
        sim.run(horizon)
    except WatchdogError as exc:
        report_trip(exc.trip)
        return EXIT_DATA_ERROR
    # Warn mode keeps running; what it caught must still reach the operator.
    if sim.watchdog is not None:
        for trip in sim.watchdog.trips:
            report_trip(trip)

    report = evaluate_violations(sim.state, manager=sim.medea.manager)
    print(f"LRAs placed:        {len(sim.lra_latencies())}/{lras}")
    print(f"LRA violations:     {report.violating_containers}/{report.subject_containers}")
    latencies = sim.task_latencies()
    if latencies:
        stats = BoxStats.from_values(latencies)
        print(f"tasks allocated:    {stats.count}")
        print(f"task latency (s):   median {stats.median:.2f}, p99 {stats.p99:.2f}")
    print(f"memory utilisation: {100 * sim.state.cluster_memory_utilization():.1f}%")
    return EXIT_OK


def _write(command: str, path: str, text: str) -> bool:
    """Write one report artifact; an unwritable path is one stderr line,
    not a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"{command}: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    return True


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be written (``None`` when it can), probed by an
    append-open that truncates nothing; a file it created is removed."""
    import os

    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        return exc.strerror or str(exc)
    if not existed:
        os.remove(path)
    return None


def _emit_report(view, doc, *, command: str, what: str, json_path=None,
                 html_path=None) -> bool:
    """Print a report command's page, then write its ``--json`` document
    (sorted keys) and its ``--html`` page; False when a write failed."""
    import json as _json

    from .obs.view import to_html, to_text

    print(to_text(view))
    if json_path:
        if not _write(command, json_path,
                      _json.dumps(doc, indent=2, sort_keys=True) + "\n"):
            return False
        print(f"{what} JSON written to {json_path}")
    if html_path:
        if not _write(command, html_path, to_html(view)):
            return False
        print(f"HTML report written to {html_path}")
    return True


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .obs.profile import ProfileReport
    from .obs.report import (
        TraceFileError,
        build_dashboard,
        dashboard_verdict,
        dashboard_view,
    )
    from .obs.rollup import rejudge_slos, sniff_rollup

    rules = None
    if args.slo:
        from .obs.slo import load_slo_rules

        try:
            rules = load_slo_rules(args.slo)
        except (OSError, ValueError) as exc:
            print(f"dashboard: cannot load SLO rules: {exc}", file=sys.stderr)
            return EXIT_DATA_ERROR
    profile = ProfileReport()
    try:
        rollup_doc = sniff_rollup(args.trace_file)
    except ValueError as exc:
        print(f"dashboard: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    if rollup_doc is not None:
        if args.collapsed:
            print(f"dashboard: --collapsed needs the raw JSONL trace; "
                  f"{args.trace_file} is a rollup document", file=sys.stderr)
            return EXIT_USAGE
        summary = rollup_doc if rules is None else rejudge_slos(rollup_doc, rules)
    else:
        try:
            summary = build_dashboard(args.trace_file, rules=rules,
                                      profile=profile)
        except TraceFileError as exc:
            print(f"dashboard: {exc}", file=sys.stderr)
            return EXIT_DATA_ERROR
    view = dashboard_view(summary, title=f"Medea run dashboard — {args.trace_file}")
    if not _emit_report(view, summary, command="dashboard", what="summary",
                        json_path=args.json, html_path=args.html):
        return EXIT_DATA_ERROR
    if args.collapsed:
        if not _write("dashboard", args.collapsed,
                      profile.collapsed(weight=args.weight)):
            return EXIT_DATA_ERROR
        print(f"collapsed stacks ({args.weight}) written to {args.collapsed}")
    if args.fail_on_breach:
        breached = dashboard_verdict(summary) == "fail"
        diverged = not summary.get("replay", {}).get("ok", True)
        if breached or diverged:
            reason = "SLO breach" if breached else "replay divergence"
            print(f"dashboard: failing on {reason}", file=sys.stderr)
            return EXIT_GATE
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    from .obs.diff import VERDICT_INCOMPARABLE, diff_traces, diff_view
    from .obs.report import TraceFileError

    kwargs = {}
    if args.context is not None:
        kwargs["context"] = args.context
    try:
        report = diff_traces(args.trace_a, args.trace_b, **kwargs)
    except TraceFileError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    if not _emit_report(diff_view(report), report.to_obj(), command="diff",
                        what="diff", json_path=args.json, html_path=args.html):
        return EXIT_DATA_ERROR
    if report.verdict == VERDICT_INCOMPARABLE:
        print(f"diff: runs are incomparable: {report.reason}",
              file=sys.stderr)
        return EXIT_DATA_ERROR
    if args.fail_on_divergence and not report.ok:
        print(f"diff: failing on {report.headline()}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def _build_placement_service(args: argparse.Namespace):
    """Stand up an in-process PlacementService on a fresh synthetic
    cluster, per the loadgen CLI flags."""
    from . import ClusterState, ConstraintManager, build_cluster
    from .core.scheduler import PlacementService

    topology = build_cluster(
        args.nodes, racks=args.racks, memory_mb=16 * 1024, vcores=8
    )
    return PlacementService(
        ClusterState(topology),
        _make_sim_scheduler(args.scheduler, args.nodes),
        ConstraintManager(topology),
        max_pending=args.max_pending,
    )


def _cmd_loadgen(args: argparse.Namespace, config) -> int:
    from .obs.load import RequestTemplate, run_sweep, sweep_to_json, sweep_view
    from .obs.session import ObsSession
    from .obs.view import to_html, to_text

    if args.sweep:
        try:
            rates = [float(r) for r in args.sweep.split(",") if r.strip()]
        except ValueError:
            print(f"loadgen: bad --sweep spec {args.sweep!r}", file=sys.stderr)
            return EXIT_USAGE
        if not rates or any(r <= 0 for r in rates):
            print("loadgen: --sweep needs positive rates", file=sys.stderr)
            return EXIT_USAGE
    else:
        rates = [args.rate]

    with ObsSession(config):
        sweep = run_sweep(
            _build_placement_service(args),
            RequestTemplate(containers=args.containers),
            rates=rates,
            requests_per_step=args.requests,
            arrival=args.arrival,
            concurrency=args.concurrency,
            seed=args.seed,
            progress=lambda line: print(f"loadgen: {line}", file=sys.stderr),
        )

    document = sweep_to_json(sweep)
    view = sweep_view(sweep)
    if args.json_out == "-":
        sys.stdout.write(document)
    else:
        print(to_text(view))
    if args.json_out and args.json_out != "-":
        if not _write("loadgen", args.json_out, document):
            return EXIT_DATA_ERROR
        print(f"loadgen: wrote {args.json_out}", file=sys.stderr)
    if args.html_out:
        if not _write("loadgen", args.html_out, to_html(view)):
            return EXIT_DATA_ERROR
        print(f"loadgen: wrote {args.html_out}", file=sys.stderr)
    return EXIT_OK


def _fetch_snapshot_retrying(target: str, retry_for_s: float):
    """Fetch ``/snapshot``, retrying refused/failed connections with
    capped exponential backoff (0.25s doubling to 4s) until
    ``retry_for_s`` of wall time has elapsed.  A watcher started a moment
    before the run's endpoint binds should wait, not crash."""
    import time as _time
    from urllib.error import URLError

    from .obs.serve import fetch_snapshot

    deadline = _time.monotonic() + max(0.0, retry_for_s)
    delay = 0.25
    while True:
        try:
            return fetch_snapshot(target)
        except (URLError, OSError, ValueError):
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise
            _time.sleep(min(delay, remaining))
            delay = min(delay * 2, 4.0)


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time
    from urllib.error import URLError

    from .obs.serve import watch_view
    from .obs.view import to_text

    frames = 0
    delay = args.interval
    try:
        while args.count is None or frames < args.count:
            if frames:
                _time.sleep(delay)
            try:
                snapshot = _fetch_snapshot_retrying(args.target, args.retry_for)
            except (URLError, OSError, ValueError) as exc:
                print(f"watch: cannot reach {args.target}: {exc}",
                      file=sys.stderr)
                return EXIT_DATA_ERROR
            if not args.no_clear:
                # Clear screen + home cursor so the frame refreshes in place.
                print("\x1b[2J\x1b[H", end="")
            print(to_text(watch_view(snapshot)))
            frames += 1
            # An unhealthy endpoint (503) answers with Retry-After; honour
            # it instead of hammering the stalled server at --interval.
            http = (snapshot.get("wall") or {}).get("http") or {}
            retry_after = http.get("retry_after_s")
            if http.get("status") == 503 and retry_after:
                delay = max(args.interval, float(retry_after))
            else:
                delay = args.interval
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _print_run_summary(tracer) -> None:
    """Print the metrics + tracer self-telemetry summary of a traced run."""
    from .obs.metrics import get_metrics
    from .obs.report import metrics_view
    from .obs.view import to_text

    view = metrics_view(get_metrics().snapshot())
    stats = tracer.self_stats()
    line = (
        f"tracer: {stats['events_emitted']} events emitted"
        f" ({stats['events_dropped']} sampled out)"
        f", overhead {stats['overhead_s']:.3f}s"
    )
    if stats.get("sampling"):
        line += f", sampling '{stats['sampling']}'"
    view.headline.append(line)
    print(to_text(view))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if _out_of_range(args):
        return EXIT_USAGE
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "parse":
        return _cmd_parse(args.constraint)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "watch":
        return _cmd_watch(args)
    from .obs.sample import parse_sample_spec
    from .obs.session import ObsConfig, ObsSession

    # ``loadgen`` has none of these flags: its settings come from the
    # variables alone.
    trace_sample = getattr(args, "trace_sample", None)
    try:
        config = ObsConfig.from_env(
            trace_out=getattr(args, "trace_out", None),
            sample=parse_sample_spec(trace_sample),
            serve=getattr(args, "serve", None),
            rollup=getattr(args, "rollup", None),
            watchdog=getattr(args, "watchdog", None),
        )
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from None
    if trace_sample and config.trace_out is None:
        raise SystemExit(
            "repro: --trace-sample needs a trace destination "
            "(--trace-out or MEDEA_TRACE=1)"
        )
    # The rollup is first written mid-run: check both outputs before it.
    for path in (config.trace_out, config.rollup):
        reason = _unwritable(path) if path else None
        if reason is not None:
            print(f"repro: cannot write {path}: {reason}", file=sys.stderr)
            return EXIT_DATA_ERROR
    if args.command == "loadgen":
        return _cmd_loadgen(args, config)
    with ObsSession(config) as session:
        if session.server is not None:
            print(f"telemetry endpoint: {session.server.url}", file=sys.stderr)
        if args.command == "compare":
            status = _cmd_compare(args.nodes, args.racks, args.instances,
                                  args.max_rs_per_node,
                                  diff_pairwise=args.diff)
        else:
            status = _cmd_simulate(args)
        if config.trace_out is not None:
            _print_run_summary(session.tracer)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
