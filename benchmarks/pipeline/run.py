"""Command line of the pipeline benchmark.

Two forms::

    python3 benchmarks/pipeline/run.py --workload W --seed N --seconds S --trace 0|1
    python3 -m benchmarks.pipeline --seed N [--check-repeat] [--smoke]

The first is one run of one workload in this process (the form the root
``BENCHMARK.json`` names): ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer metrics.  Its last line of output is the result
object; the line before it carries the raw samples.  The second runs every
workload: three untraced runs each, interleaved round-robin, then one traced
run each, every run in a fresh subprocess of the first form.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: Environment that changes how the program under test behaves or reports.
SCRUBBED_PREFIXES = ("MEDEA_", "BENCH_", "SCALE_BENCH_", "SOLVER_STATS")
#: One busy thread per Python thread: numeric libraries stay single-threaded.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Untraced runs of each workload in the all-workloads form.
REPEATS = 3
#: Share of a traced run's passes made untraced first, on the same inputs,
#: to measure what tracing costs.
CALIBRATION_SHARE = 0.25
CHILD_TIMEOUT_S = 600
#: What ``workloads.reference_kernel`` takes, as the median of a run's
#: timings, on the host speed that times are reported at (the quiet state of
#: the 2.1 GHz Xeon the baseline was sized on).  A constant of the benchmark:
#: changing it rescales every time.
REFERENCE_NOMINAL_S = 0.0045

#: Per-layer metrics that must repeat exactly for one (workload, seed).
EXACT = (
    "core.ilp.variables",
    "core.ilp.constraints",
    "core.ilp.objective_sum",
    "solver.bnb.nodes",
    "solver.bnb.lp_solves",
    "obs.violations.violation_fraction",
    "taskscheduler.queue_delay_mean_sim_s",
)


def prepare_environment() -> None:
    """Scrub behaviour-changing variables and make ``repro`` importable.

    Runs before the first import of ``repro``; child processes inherit it.
    """
    for key in list(os.environ):
        if key.startswith(SCRUBBED_PREFIXES):
            del os.environ[key]
    for key in SINGLE_THREAD:
        os.environ[key] = "1"
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"benchmark: no program to measure under {source}")
    # As a script, this directory leads sys.path; the benchmark's modules
    # are imported as ``benchmarks.pipeline.*`` only.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_speed(window) -> float:
    """Nominal over measured time of the reference kernel: below 1 while the
    host runs slower than the speed times are reported at.

    The kernel is timed between the passes; measured times multiplied by this
    ratio are what the same work would have taken at the nominal host speed.
    """
    return REFERENCE_NOMINAL_S / statistics.median(window.reference_s)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run of one workload ---------------------------------------------------


def run_single(
    name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False
) -> dict:
    """Run one workload in this process; returns ``{"result", "detail"}``."""
    from benchmarks.pipeline.layers import TARGETS, derive
    from benchmarks.pipeline.spans import SpanRecorder
    from benchmarks.pipeline.workloads import make_workload, percentile

    spec = load_spec()
    workload = make_workload(name, seed, smoke=smoke)
    passes = workload.passes_for(seconds)
    if trace:
        untraced = max(1, round(passes * CALIBRATION_SHARE))
        calibration = workload.run(untraced, None)
        recorder = SpanRecorder(repeat_id=f"{name}:{seed}")
        recorder.install(TARGETS)
        try:
            window = workload.run(max(1, passes - untraced), recorder)
        finally:
            recorder.uninstall()
        workload.side(window)
        windows = [calibration, window]
        recorder.write(
            os.path.join(OUT_DIR, f"trace_{name}.json"),
            workload=name, seed=seed, seconds=seconds, smoke=smoke,
        )
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        # Spans accumulate over the traced passes, which all do the same
        # work: report one pass's share.
        values.update(
            (key, value / window.passes)
            for key, value in derive(recorder.totals()).items()
        )
        values.update(window.layer)
        values.update(window.exact)
        if window.fill_s:
            values["workloads.fill_cluster_s"] = statistics.median(window.fill_s)
        values["cluster.topology.build_s"] = statistics.median(window.build_s)
        heartbeats = values["taskscheduler.heartbeat_calls"]
        if heartbeats:
            values["taskscheduler.alloc_per_heartbeat"] = (
                values["taskscheduler.allocations"] / heartbeats
            )
        values["bench.trace_overhead_ratio"] = statistics.median(
            window.latencies_s
        ) / statistics.median(calibration.latencies_s)
        values["bench.host_speed_ratio"] = host_speed(window)
        measured = {}
        declared = spec["per_layer"]
        missing = recorder.missing
    else:
        window = workload.run(passes, None)
        windows = [window]
        latencies = window.latencies_s
        measured = {
            "setup_s": statistics.median(window.setup_s),
            "latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "latency_p90_ms": 1000.0 * percentile(latencies, 90),
            "throughput_per_s": window.units / window.busy_s,
        }
        speed = host_speed(window)
        values = {key: value * speed for key, value in measured.items()}
        values["throughput_per_s"] = measured["throughput_per_s"] / speed
        values["peak_rss_mb"] = peak_rss_mb()
        declared = spec["end_to_end"]
        missing = []

    errors = [e for w in windows for e in w.errors]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        errors.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    result = {
        "correct": not errors,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "samples": len(window.latencies_s),
        "passes": window.passes,
        "latencies_s": [round(v, 6) for v in window.latencies_s],
        # Slowest single operation of any pass, and how many were timed.
        "latency_max_s": window.latency_max_s,
        "operations": window.passes * len(window.latencies_s),
        "setups": len(window.setup_s),
        "measured_s": round(sum(w.measured_s for w in windows), 3),
        "host_speed_ratio": host_speed(window),
        # The end-to-end times before the host-speed correction.
        "as_measured": measured,
        "fingerprint": window.fingerprint,
        "inputs_digest": window.inputs_digest,
        "exact": window.exact,
        "missing_targets": missing,
        "errors": errors[:20],
    }
    return {"result": result, "detail": detail}


def print_single(run: dict) -> None:
    detail, result = run["detail"], run["result"]
    print(
        f"{detail['workload']} seed={detail['seed']} seconds={detail['seconds']:g} "
        f"trace={detail['trace']} samples={detail['samples']} "
        f"passes={detail['passes']} setups={detail['setups']} "
        f"measured_s={detail['measured_s']:g} "
        f"host_speed_ratio={detail['host_speed_ratio']:.4f}"
    )
    for name, metric in result["metrics"].items():
        line = f"  {name:44s} {metric['value']:.6g} {metric['unit']}"
        if name in detail["as_measured"]:
            line += f"   (as measured: {detail['as_measured'][name]:.6g})"
        print(line)
    for name in detail["missing_targets"]:
        print(f"  {name:44s} null (callable no longer exists)")
    for error in detail["errors"]:
        print(f"  CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


# -- every workload, in subprocesses ---------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"benchmark: {name} printed no result (exit {done.returncode})")
    run = {"result": json.loads(lines[-1]), **json.loads(lines[-2])}
    run["exit"] = done.returncode
    return run


def run_set(spec: dict, seed: int, seconds: float, smoke: bool) -> dict:
    """One full set: interleaved untraced repeats, then a traced run each."""
    names = [w["name"] for w in spec["workloads"]]
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(REPEATS):
        for name in names:
            print(f"[run] {name} untraced {repeat + 1}/{REPEATS}", file=sys.stderr)
            untraced[name].append(run_child(name, seed, seconds, 0, smoke))
    traced = {}
    for name in names:
        print(f"[run] {name} traced", file=sys.stderr)
        traced[name] = run_child(name, seed, seconds, 1, smoke)

    problems: list[str] = []
    end_to_end: dict[str, dict] = {}
    for name in names:
        runs = untraced[name]
        for run in runs + [traced[name]]:
            if run["exit"] or not run["result"]["correct"] or run["result"]["failed"]:
                problems.append(
                    f"{name}: exit {run['exit']}, failed {run['result']['failed']}, "
                    f"errors {run['detail']['errors']}"
                )
        if len({run["detail"]["fingerprint"] for run in runs}) > 1:
            problems.append(f"{name}: repeats of seed {seed} gave different outputs")
        rows = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            per_run = [run["result"]["metrics"][key]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(per_run, n=4)
            rows[key] = {
                "value": q2, "q1": q1, "q3": q3, "n": len(per_run),
                "unit": metric["unit"],
            }
        rows["failed_fraction"] = {
            "value": sum(r["result"]["failed"] for r in runs)
            / sum(r["result"]["attempted"] for r in runs),
            "unit": "1", "n": sum(r["result"]["attempted"] for r in runs),
        }
        rows["latency_max_ms"] = {
            "value": 1000.0 * max(r["detail"]["latency_max_s"] for r in runs),
            "unit": "ms", "n": sum(r["detail"]["operations"] for r in runs),
        }
        end_to_end[name] = rows
    per_layer = {name: traced[name]["result"]["metrics"] for name in names}
    exact = {
        name: {
            "fingerprint": untraced[name][0]["detail"]["fingerprint"],
            "fingerprint_traced": traced[name]["detail"]["fingerprint"],
            **{
                key: value["value"]
                for key, value in per_layer[name].items()
                if key in EXACT
            },
        }
        for name in names
    }
    return {
        "end_to_end": end_to_end, "per_layer": per_layer, "exact": exact,
        "problems": problems,
        "missing": {n: traced[n]["detail"]["missing_targets"] for n in names},
    }


def print_set(spec: dict, result: dict, title: str) -> None:
    print(f"== {title}: end to end (median and quartiles over the untraced runs) ==")
    print(f"{'workload':14s} {'metric':18s} {'value':>12s} {'q1':>12s} {'q3':>12s} unit  n")
    for name, rows in result["end_to_end"].items():
        for key, row in rows.items():
            q1 = f"{row['q1']:12.6g}" if "q1" in row else " " * 12
            q3 = f"{row['q3']:12.6g}" if "q3" in row else " " * 12
            print(
                f"{name:14s} {key:18s} {row['value']:12.6g} {q1} {q3} "
                f"{row['unit']:5s} {row['n']}"
            )
    print(f"== {title}: per layer (one traced run per workload) ==")
    names = list(result["per_layer"])
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for metric in spec["per_layer"]:
        key = metric["name"]
        cells = " ".join(
            f"{result['per_layer'][n][key]['value']:14.6g}" for n in names
        )
        print(f"{key:44s} {metric['unit']:6s} {cells}")
    for name, missing in result["missing"].items():
        for target in missing:
            print(f"{name}: {target} = null (callable no longer exists)")


def check_repeat(spec: dict, first: dict, second: dict) -> list[str]:
    """Compare two sets run on the same code and seed."""
    problems: list[str] = []
    print("== repeatability: two sets, same code, same seed ==")
    print(f"{'workload':14s} {'metric':18s} {'first':>12s} {'second':>12s} {'ratio':>8s} bound")
    for metric in spec["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        for name in first["end_to_end"]:
            a = first["end_to_end"][name][key]["value"]
            b = second["end_to_end"][name][key]["value"]
            ratio = b / a
            verdict = "" if abs(ratio - 1.0) <= bound else "  OUTSIDE BOUND"
            print(f"{name:14s} {key:18s} {a:12.6g} {b:12.6g} {ratio:8.4f} {bound:g}{verdict}")
            if verdict:
                problems.append(f"{name}.{key}: ratio {ratio:.4f} outside ±{bound:g}")
    for name in first["exact"]:
        for key, a in first["exact"][name].items():
            b = second["exact"][name][key]
            if a != b:
                problems.append(f"{name}.{key}: {a!r} != {b!r} (must repeat exactly)")
    return problems


def run_full(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    first = run_set(spec, args.seed, seconds, args.smoke)
    print_set(spec, first, f"seed {args.seed}, {seconds:g} s windows")
    problems = list(first["problems"])
    if args.check_repeat:
        second = run_set(spec, args.seed, seconds, args.smoke)
        problems += second["problems"]
        problems += check_repeat(spec, first, second)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "seed": args.seed, "seconds": seconds, "ok": not problems,
        "end_to_end": first["end_to_end"], "per_layer": first["per_layer"],
    }))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.pipeline", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="nominal length of a run; fixes its number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small populations")
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run two full sets and compare them against the bounds",
    )
    args = parser.parse_args(argv)
    if args.seconds is not None and not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    prepare_environment()
    if args.workload is None:
        return run_full(args)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    run = run_single(args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke)
    print_single(run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
