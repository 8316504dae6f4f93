"""A/B benchmark of two checkouts: alternating perfbench runs, summarized per metric.

Usage:
    git worktree add ../parent HEAD~1
    python3 scripts/ab_bench.py ../parent . --workload train_taac league_desk selfplay_ppo \
        --seeds 101-110 --seconds 30

For each seed and each named workload, one pair of runs of
``perfbench/run.py --trace 0``, one in each checkout; the parent goes first
in the first seed's pairs and the sides take turns from seed to seed. One
summary per workload gives, for every end-to-end metric that the change's
BENCHMARK.json declares, each pair's values, each side's median and
quartiles and the change's win count (ties count for neither side). Digests
that differ within a pair, failed calls and runs that did not finish are
flagged. Exits 0 only when every run finished with no failed call and every
pair's digests are equal. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds from items such as ``7`` or ``101-110`` (inclusive)."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout: str) -> dict:
    """The metric values, call counts and digest from one run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "digest": digest}


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        return parse_run(proc.stdout)
    except (ValueError, LookupError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{exc}: {tail[0]}"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for ``(seed, parent result, change result)`` pairs, and whether all was clean."""
    lines, clean = [], True
    for seed, *results in pairs:
        for side, res in zip(SIDES, results):
            if "error" in res:
                lines.append(f"FLAG seed {seed}: {side} run did not finish ({res['error']})")
            elif res["failed"]:
                lines.append(f"FLAG seed {seed}: {side} failed {res['failed']} of {res['attempted']} calls")
            else:
                continue
            clean = False
        if all("error" not in r for r in results) and results[0]["digest"] != results[1]["digest"]:
            lines.append(f"FLAG seed {seed}: digests differ, parent {results[0]['digest']} "
                         f"change {results[1]['digest']}")
            clean = False
    done = [(seed, p, c) for seed, p, c in pairs if "error" not in p and "error" not in c]
    same = sum(p["digest"] == c["digest"] for _, p, c in done)
    lines.append(f"digests equal in {same} of {len(done)} complete pairs")
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        wins = ties = 0
        for seed, p, c in done:
            pv, cv = p["metrics"][name], c["metrics"][name]
            if pv == cv:
                ties, verdict = ties + 1, "tie"
            elif (cv > pv) == higher:
                wins, verdict = wins + 1, "change"
            else:
                verdict = "parent"
            lines.append(f"  seed {seed}: parent {pv:.6g} change {cv:.6g} -> {verdict}")
        if not done:
            lines.append("  no complete pair")
            continue
        stats = {}
        for side, k in zip(SIDES, (1, 2)):
            stats[side] = quartiles([pair[k]["metrics"][name] for pair in done])
            q1, med, q3 = stats[side]
            lines.append(f"  {side} median {med:.6g} (quartiles {q1:.6g} / {q3:.6g})")
        (pq1, pmed, pq3), cmed = stats["parent"], stats["change"][1]
        ratio = f"{cmed / pmed:.4f}" if pmed else "n/a"
        lines.append(f"  change/parent {ratio}; change wins {wins} of {len(done)} (ties {ties}); "
                     f"median gap {abs(cmed - pmed):.6g} vs parent quartile spread {pq3 - pq1:.6g}")
    return lines, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="checkout directory of the parent commit")
    parser.add_argument("change", help="checkout directory of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workload names")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges (101-110)")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    pairs: dict[str, list] = {workload: [] for workload in args.workload}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload, done in pairs.items():
            results = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                start = time.monotonic()
                results[side] = res = run_side(dirs[side], workload, seed, args.seconds)
                shown = res.get("error") or f"{json.dumps(res['metrics'])} digest {res['digest']}"
                print(f"seed {seed} {workload} {side} ({time.monotonic() - start:.0f} s): {shown}",
                      file=sys.stderr, flush=True)
            done.append((seed, results["parent"], results["change"]))
    all_clean = True
    for workload, done in pairs.items():
        lines, clean = summarize(done, end_to_end)
        all_clean = all_clean and clean
        print(f"workload {workload}, {len(done)} pairs, {args.seconds:g} s runs")
        print("\n".join(lines))
    return 0 if all_clean else 1


if __name__ == "__main__":
    sys.exit(main())
