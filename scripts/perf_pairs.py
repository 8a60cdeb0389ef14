"""Alternating perfbench pairs: a parent tree against a change tree.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload chat_sorted --seeds 50-59

Each seed runs ``perfbench/run.py --trace 0`` once in each tree, in its
own process and working directory; the side that goes first alternates
from seed to seed so that a drift in host speed falls on both sides.
Every run's last stdout line (perfbench's JSON result) is kept.

For each end-to-end metric in ``CHANGE_DIR/BENCHMARK.json`` the script
prints the parent's median and quartiles, the change's median, the
number of pairs the change wins, and a verdict:

- ``unresolved``: the parent's interquartile range, relative to its
  median, is wider than the metric's bound, so the runs cannot resolve
  a move of that size — unless every change run is better than every
  parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``gain``: the change wins at least 9 pairs in 10 and its median is
  better by more than the parent's interquartile range;
- ``within bound``: anything else.

It also reports any run that was not ``correct`` or had failed
operations. Run length is ``run_seconds`` from ``BENCHMARK.json``, the
same on both sides. The script only invokes ``perfbench/run.py``; it
changes nothing in either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(spec: str) -> list:
    """``"5-9"`` → [5, 6, 7, 8, 9]; ``"3,7,11"`` → [3, 7, 11]."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's JSON result for one run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{tree} seed {seed}: no JSON result (exit {proc.returncode})\n"
                           + proc.stderr[-2000:]) from None


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, the parent's quartiles, the change's wins and the
    verdict for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    med_c = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    spread = (q3 - q1) / med_p if med_p else float("inf")
    gain = sign * (med_c - med_p)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        call = "unresolved"
    elif -gain > bound * med_p:
        call = "worse"
    elif wins >= 0.9 * len(parent) and gain > q3 - q1:
        call = "gain"
    else:
        call = "within bound"
    return {"parent": med_p, "q1": q1, "q3": q3, "change": med_c,
            "ratio": med_c / med_p if med_p else float("nan"),
            "wins": wins, "pairs": len(parent), "spread": spread, "verdict": call}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, or a comma list")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.time()
            res = run_once(trees[side], args.workload, seed, seconds)
            res["seed"] = seed
            runs[side].append(res)
            shown = {m["name"]: round(res["metrics"][m["name"]]["value"], 2)
                     for m in bench["end_to_end"] if m["name"] in res["metrics"]}
            print(f"seed {seed} {side:6s} {time.time() - t0:5.0f}s correct={res['correct']} "
                  f"failed={res['failed']} {shown}", flush=True)

    bad = [(side, r["seed"]) for side in runs for r in runs[side]
           if not r["correct"] or r["failed"]]
    print(f"\n{args.workload}: {len(runs['parent'])} pairs; runs not correct or with "
          f"failures: {bad or 'none'}")
    print("| metric | parent median (Q1–Q3) | change median | change/parent | wins "
          "| parent IQR/median | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        if len(parent) < 2:
            continue
        v = verdict(parent, change, m["better"], m["bound"])
        print(f"| `{name}` | {v['parent']:.4g} ({v['q1']:.4g}–{v['q3']:.4g}) "
              f"| {v['change']:.4g} | {v['ratio']:.3f} | {v['wins']}/{v['pairs']} "
              f"| {v['spread']:.3f} | {m['bound']} | {v['verdict']} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
