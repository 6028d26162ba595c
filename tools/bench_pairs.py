#!/usr/bin/env python3
"""Compare two checkouts on perfbench in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seed S --pairs N [--trace]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once
in each checkout, with ``T`` the ``run_seconds`` of the change's
``BENCHMARK.json``: the parent first in odd pairs, the change first in even
ones, so a drift of the machine's speed weighs on both sides alike.  For
every end-to-end metric that ``BENCHMARK.json`` declares, it then prints
each side's median and quartiles, how many pairs the change won, and the
relative change of the medians against the metric's bound.  A metric is
"unresolved" when the parent's own quartile spread, relative to its median,
is wider than the bound: such runs cannot tell a change inside the bound
from one outside it.  That does not hold when every run of the change reads
better than every run of the parent, which is reported as "better in every
run".  A line of its own says whether the runs support a claim that the
change improved the metric: the change must win at least nine tenths of the
pairs, a tie counting for neither side, and the medians must differ by more
than the parent's quartile spread.  With ``--trace``, one ``--trace 1`` run
per checkout follows the pairs, and each per-layer metric that
``BENCHMARK.json`` declares is printed for both sides with its relative
change.  Nothing is written to either checkout beyond what perfbench itself
writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles and pair wins of one metric over paired runs, the
    verdict against ``bound``, and whether a claimed gain holds.

    ``parent[i]`` and ``change[i]`` come from pair ``i``; ``better`` is
    "higher" or "lower"; ``bound`` is the allowed relative worsening.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    gain = sign * (c_median - p_median) / p_median  # > 0 when the change is better
    if min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "better in every run"
    elif (p_q3 - p_q1) / p_median > bound:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    claimed = 10 * wins >= 9 * len(parent) and sign * (c_median - p_median) > p_q3 - p_q1
    return {"parent": (p_median, p_q1, p_q3), "change": (c_median, c_q1, c_q3),
            "wins": wins, "pairs": len(parent), "gain": gain, "verdict": verdict,
            "claim": claimed}


def trace_table(parent: dict, change: dict, per_layer: list[dict]) -> list[str]:
    """One line per declared per-layer metric that both traced runs report:
    the parent's value, the change's and the relative change ("n/a" from 0).

    ``parent`` and ``change`` are the ``metrics`` of a ``--trace 1`` result;
    ``per_layer`` is ``BENCHMARK.json``'s list, in whose order lines appear.
    """
    lines = []
    for metric in per_layer:
        name = metric["name"]
        if name in parent and name in change:
            p, c = parent[name]["value"], change[name]["value"]
            relative = f"{(c - p) / p:+.1%}" if p else "n/a"
            lines.append(f"  {name} ({metric['unit']}, {metric['better']} is better): "
                         f"{p:.4g} vs {c:.4g} ({relative})")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """The last stdout line of one perfbench run: its JSON result."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def checked_run(args, side: str, seconds: float, label: str, trace: bool = False) -> dict:
    """The metrics of one perfbench run in ``side``'s checkout, which must pass
    its checks with no failed operation."""
    result = run_once(getattr(args, side), args.workload, args.seed, seconds, trace)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{label}, {side}: check failed or operations failed: "
                         f"{json.dumps(result)}")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="two or more")
    parser.add_argument("--trace", action="store_true",
                        help="then one traced run per checkout, per-layer metrics side by side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be 2 or more, got {args.pairs}")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(checked_run(args, side, seconds, f"pair {pair}"))
        print(f"pair {pair}: " + ", ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]['value']:.4g} vs "
            f"{runs['change'][-1][m['name']]['value']:.4g}" for m in metrics), flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s runs; "
          f"median (quartiles), parent vs change")
    for metric in metrics:
        name = metric["name"]
        s = summarize([r[name]["value"] for r in runs["parent"]],
                      [r[name]["value"] for r in runs["change"]],
                      metric["better"], metric["bound"])
        print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound "
              f"{metric['bound']:.0%}): {s['parent'][0]:.4g} ({s['parent'][1]:.4g}-"
              f"{s['parent'][2]:.4g}) vs {s['change'][0]:.4g} ({s['change'][1]:.4g}-"
              f"{s['change'][2]:.4g}); change better in {s['wins']} of {s['pairs']}, "
              f"median better by {s['gain']:+.1%}: {s['verdict']}")
        print(f"    claim of a gain {'met' if s['claim'] else 'not met'}: change better in "
              f"{s['wins']} of {s['pairs']} pairs (needs {-(-9 * s['pairs'] // 10)}), "
              f"medians {abs(s['change'][0] - s['parent'][0]):.4g} apart "
              f"(needs over the parent's quartile spread, "
              f"{s['parent'][2] - s['parent'][1]:.4g})")

    if args.trace:
        traced = {side: checked_run(args, side, seconds, "traced run", trace=True)
                  for side in ("parent", "change")}
        print(f"{args.workload}, seed {args.seed}, one --trace 1 run per checkout; per-layer "
              f"metrics per round, parent vs change")
        print("\n".join(trace_table(traced["parent"], traced["change"],
                                    benchmark["per_layer"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
