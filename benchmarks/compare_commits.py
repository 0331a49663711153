"""Alternating-pairs A/B of the pipeline benchmark: BASE commit vs this tree.

    python3 benchmarks/compare_commits.py BASE [--pairs 3] [--workloads W ...] [--seed N]

BASE is exported (``git archive``) into a temporary directory, then
``benchmarks/pipeline/run.py --trace 0`` runs base/change/change/base/… per
workload, each side from its own checkout, so host drift hits both sides
alike.  Per (workload, end-to-end metric) it prints both medians, both
quartile spreads (q3 − q1), the ratio change/base, the smallest change the
runs resolve (``resolves``: ratios inside 1 ± the wider spread over the base
median read ``unresolved``), the pairs ``improved`` needs (⌈0.9·n⌉ of n),
the pairs the change won (beat the base in the metric's direction; a tie
counts for neither side) and a verdict: ``unresolved`` when the medians
differ by no more than the wider spread (``benchmarks/pipeline/README.md``,
"Observed run-to-run spread"), otherwise ``improved`` or ``worse`` by the metric's direction in
``BENCHMARK.json`` — where ``improved`` also needs at least 9 of every 10
pairs won, and reads ``unresolved`` without them.
A metric whose ``resolves`` is wider than its ``bound`` is listed after the
table: at that pair count the run cannot call a change inside the bound
either way.  Exits 1 if a run fails its output checks or the two sides' output
fingerprints differ, and 3 if a metric is ``worse`` by more than its
``bound`` in ``BENCHMARK.json`` (the rule of ``run.py --check-repeat``;
``unresolved`` never fails).  Reads the benchmark, never edits it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced run from ``checkout``: (metric -> value, detail)."""
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "benchmarks", "pipeline", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} failed in {checkout} (exit {done.returncode})")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} in {checkout}: {detail['errors'] or result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def spread(values: list[float]) -> tuple[float, float]:
    """(median, q3 − q1)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def verdict(base: list[float], change: list[float], better: str) -> tuple:
    """(base median, base iqr, change median, change iqr, ratio, verdict,
    pairs won); ``base[i]`` and ``change[i]`` are the two runs of pair ``i``."""
    base_median, base_iqr = spread(base)
    change_median, change_iqr = spread(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (change_median - base_median)
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if abs(gain) <= max(base_iqr, change_iqr):
        word = "unresolved"
    elif gain < 0:
        word = "worse"
    else:
        word = "improved" if 10 * won >= 9 * len(base) else "unresolved"
    ratio = change_median / base_median if base_median else float("nan")
    return base_median, base_iqr, change_median, change_iqr, ratio, word, won


def judge(spec: dict, values: dict, prints: dict) -> tuple[list[str], int]:
    """Report lines and exit status, from the collected runs alone.

    ``values[workload][side][metric]`` holds one value per run and
    ``prints[workload][side]`` the set of output fingerprints seen.
    """
    lines = [f"{'workload':14s} {'metric':17s} {'base':>10s} {'±iqr':>9s} "
             f"{'change':>10s} {'±iqr':>9s} {'ratio':>8s} {'resolves':>9s} "
             f"{'needs':>5s} {'won':>6s}  verdict"]
    mismatch, offenders, blind = False, [], []
    for workload, sides in values.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            n = len(sides["base"][name])
            row = verdict(sides["base"][name], sides["change"][name], metric["better"])
            ratio, word, won = row[4:]
            # A ratio inside 1 ± resolve reads unresolved whatever the pairs
            # say; improved also needs ceil(0.9 n) pairs won.
            resolve = max(row[1], row[3]) / row[0] if row[0] else float("nan")
            needs = -(-9 * n // 10)
            lines.append(f"{workload:14s} {name:17s} {row[0]:10.5g} {row[1]:9.3g} "
                         f"{row[2]:10.5g} {row[3]:9.3g} {ratio:8.3f} {'1±' + format(resolve, '.3f'):>9s} "
                         f"{needs:5d} {f'{won}/{n}':>6s}  {word}")
            if word == "worse" and abs(ratio - 1.0) > metric["bound"]:
                offenders.append(f"{workload}.{name} (ratio {ratio:.3f}, bound ±{metric['bound']:g})")
            if resolve > metric["bound"]:
                blind.append(f"{workload}.{name} (1±{resolve:.3f}, bound ±{metric['bound']:g}, {n} pairs)")
        base, change = prints[workload]["base"], prints[workload]["change"]
        if base != change or len(base) != 1:
            mismatch = True
            lines.append(f"{workload}: FINGERPRINTS DIFFER base={sorted(base)} change={sorted(change)}")
        else:
            lines.append(f"{workload}: fingerprint {min(base)} on both sides")
    if blind:
        lines.append("CANNOT CALL A CHANGE INSIDE ITS BOUND (it reads unresolved, "
                     "neither improved nor worse): " + ", ".join(blind))
    if offenders:
        lines.append("WORSE BEYOND BOUND: " + ", ".join(offenders))
    return lines, 1 if mismatch else 3 if offenders else 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="commit to compare this tree against")
    parser.add_argument("--pairs", type=int, default=3, help="base/change pairs per workload (>= 2)")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")

    values: dict = {}
    prints: dict = {}
    with tempfile.TemporaryDirectory(prefix="compare_commits_") as base_dir:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.base],
            cwd=ROOT, stdout=subprocess.PIPE, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # ``filter=`` needs 3.12, or a patched 3.10.12+ / 3.11.4+.
            tar.extractall(base_dir, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        sides = {"base": base_dir, "change": ROOT}
        for workload in args.workloads:
            values[workload] = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
            prints[workload] = {side: set() for side in sides}
            for pair in range(args.pairs):
                # base/change, change/base, ...: neither side always runs first.
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    print(f"[{workload} pair {pair + 1}/{args.pairs}] {side}", file=sys.stderr)
                    metrics, detail = run_once(sides[side], workload, args.seed)
                    prints[workload][side].add(detail["fingerprint"])
                    for name, value in metrics.items():
                        values[workload][side][name].append(value)
    lines, status = judge(spec, values, prints)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
