"""A/B benchmark of two git revisions: alternating perfbench runs, summarized per metric.

Usage, from inside the repository:
    python3 scripts/ab_bench.py HEAD~1 HEAD --workload train_taac league_desk selfplay_ppo \
        --seeds 101-110 --seconds 30

Both revisions are extracted with ``git archive`` into sibling directories
under one temporary directory, so both sides are built the same way; the
directory is deleted on exit and the working tree is never read. Commit the
change before comparing it. For each seed and each named workload, one pair
of runs of ``perfbench/run.py --trace 0``, one in each copy; the parent goes
first in the first seed's pairs and the sides take turns from seed to seed. One
summary per workload gives, for every end-to-end metric that the change's
BENCHMARK.json declares, each pair's values, each side's median and
quartiles, the change's win count (ties count for neither side), whether the
pairs show a gain (see ``gain_shown``) and a no-regression verdict against the
metric's ``bound`` (see ``verdict``). Digests
that differ within a pair, failed calls and runs that did not finish are
flagged. Exits 0 only when every workload has a complete pair, every run
finished with no failed call and every pair's digests are equal; a malformed
or reversed ``--seeds`` range, a non-positive ``--seconds``, a revision that
names no commit and a ``--workload`` that the change's BENCHMARK.json does not
list are usage errors (exit 2), refused before any run. Uses the standard
library and the git and tar commands only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds from items such as ``7`` or ``101-110`` (inclusive); ValueError on a
    reversed range, which would hold no seed."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"seed range {item} is reversed")
        seeds.extend(range(lo, hi + 1))
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


def is_commit(revision: str) -> bool:
    return subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
                          capture_output=True).returncode == 0


@contextlib.contextmanager
def extracted(revisions: dict[str, str]):
    """Yields {side: directory}: each side's revision extracted by ``git archive``
    into a sibling directory under one temporary directory, deleted on exit."""
    # from a subdirectory, git archive would take that subdirectory only
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                         check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        dirs = {}
        for side, revision in revisions.items():
            dirs[side] = os.path.join(tmp, side)
            os.mkdir(dirs[side])
            archive = subprocess.run(["git", "-C", top, "archive", revision],
                                     capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", dirs[side]], input=archive.stdout, check=True)
        yield dirs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], parent_q: tuple[float, float, float],
            change_med: float, bound: float, higher: bool) -> str:
    """``within bound`` or ``worse than bound``: whether the change's median is worse
    than the parent's by more than ``bound`` x the parent median. ``unresolved``
    instead when the parent's quartile spread exceeds that margin and not every
    change run beats every parent run. ``parent_q`` is the parent's
    ``quartiles`` and ``change_med`` the change's median."""
    pq1, pmed, pq3 = parent_q
    margin = bound * abs(pmed)
    beats_all = all((c > p) if higher else (c < p) for c in change for p in parent)
    if pq3 - pq1 > margin and not beats_all:
        return "unresolved"
    worse_by = pmed - change_med if higher else change_med - pmed
    return "worse than bound" if worse_by > margin else "within bound"


def gain_shown(wins: int, pairs: int, parent_q: tuple[float, float, float], change_med: float,
               higher: bool) -> bool:
    """Whether the change shows a gain: it wins at least 9 in 10 of the ``pairs`` complete
    pairs (a tie counts for neither side), and its median beats the parent's by more
    than the parent's quartile spread."""
    pq1, pmed, pq3 = parent_q
    gap = change_med - pmed if higher else pmed - change_med
    return 10 * wins >= 9 * pairs and gap > pq3 - pq1


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
    clean = clean and bool(done)  # no complete pair shows nothing
    same = sum(p["digest"] == c["digest"] for _, p, c in done)
    lines.append(f"digests equal in {same} of {len(done)} complete pairs")
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        wins = ties = 0
        for seed, p, c in done:
            pv, cv = p["metrics"][name], c["metrics"][name]
            if pv == cv:
                ties, better = ties + 1, "tie"
            elif (cv > pv) == higher:
                wins, better = wins + 1, "change"
            else:
                better = "parent"
            lines.append(f"  seed {seed}: parent {pv:.6g} change {cv:.6g} -> {better}")
        if not done:
            lines.append("  no complete pair")
            continue
        values, stats = {}, {}
        for side, k in zip(SIDES, (1, 2)):
            values[side] = [pair[k]["metrics"][name] for pair in done]
            stats[side] = q1, med, q3 = quartiles(values[side])
            lines.append(f"  {side} median {med:.6g} (quartiles {q1:.6g} / {q3:.6g})")
        (pq1, pmed, pq3), cmed = stats["parent"], stats["change"][1]
        shown = gain_shown(wins, len(done), stats["parent"], cmed, higher)
        lines.append(f"  gain: {'shown' if shown else 'not shown'} (needs at least 9 in 10 pairs won and a "
                     f"median gap in the better direction over the parent quartile spread)")
        ratio = f"{cmed / pmed:.4f}" if pmed else "n/a"
        lines.append(f"  change/parent {ratio}; change wins {wins} of {len(done)} (ties {ties}); "
                     f"median gap {abs(cmed - pmed):.6g} vs parent quartile spread {pq3 - pq1:.6g}")
        bound = metric["bound"]
        label = verdict(values["parent"], values["change"], stats["parent"], cmed, bound, higher)
        lines.append(f"  verdict: {label} "
                     f"(bound {bound:g} x parent median = {bound * abs(pmed):.6g})")
    return lines, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workload names")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges (101-110)")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    if not args.seconds > 0:  # NaN too
        parser.error(f"--seconds must be positive, got {args.seconds:g}")
    for revision in (args.parent, args.change):
        if not is_commit(revision):
            parser.error(f"{revision} names no commit of the repository here")
    with extracted({"parent": args.parent, "change": args.change}) as dirs:
        with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
            benchmark = json.load(fh)
        known = [w["name"] for w in benchmark["workloads"]]
        unknown = [w for w in args.workload if w not in known]
        if unknown:
            parser.error(f"--workload {' '.join(unknown)}: the change's BENCHMARK.json lists only "
                         f"{', '.join(known)}")
        return compare(dirs, args.workload, seeds, args.seconds, benchmark["end_to_end"])


def compare(dirs: dict[str, str], workloads: list[str], seeds: list[int], seconds: float,
            end_to_end: list[dict]) -> int:
    """Runs the alternating pairs in the two copies, prints one summary per workload
    and returns the exit code."""
    pairs: dict[str, list] = {workload: [] for workload in workloads}
    for i, seed in enumerate(seeds):
        for workload, done in pairs.items():
            results = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                start = time.monotonic()
                results[side] = res = run_side(dirs[side], workload, seed, seconds)
                shown = res.get("error") or f"{json.dumps(res['metrics'])} digest {res['digest']}"
                print(f"seed {seed} {workload} {side} ({time.monotonic() - start:.0f} s): {shown}",
                      file=sys.stderr, flush=True)
            done.append((seed, results["parent"], results["change"]))
    all_clean = True
    for workload, done in pairs.items():
        lines, clean = summarize(done, end_to_end)
        all_clean = all_clean and clean
        print(f"workload {workload}, {len(done)} pairs, {seconds:g} s runs")
        print("\n".join(lines))
    return 0 if all_clean else 1


if __name__ == "__main__":
    sys.exit(main())
