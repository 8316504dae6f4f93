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
list are usage errors (exit 2), refused before any run. ``--json PATH`` also
writes the run as one JSON record: both revisions and their commits, the seeds
and seconds, the runs' host records, and per workload every run's result and
every number of its summary (see ``summary_record``). Uses the standard
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


def parse_host(stdout: str) -> dict | None:
    """The host record a run printed on its ``host`` line, or None."""
    return next((json.loads(line[len("host "):]) for line in stdout.splitlines()
                 if line.startswith("host ")), None)


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        return dict(parse_run(proc.stdout), host=parse_host(proc.stdout))
    except (ValueError, LookupError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{exc}: {tail[0]}"}


def commit_of(revision: str) -> str | None:
    """The full hash of the commit ``revision`` names, or None."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


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


GAIN_RULE = ("needs at least 9 in 10 pairs won and a median gap in the better direction "
             "over the parent quartile spread")


def metric_record(done: list[tuple[int, dict, dict]], metric: dict) -> dict:
    """One end-to-end metric over the complete pairs ``done``: each pair's values and
    winner, the change's wins and ties, and, when a pair completed, each side's median
    and quartiles, the gain, the change/parent ratio, the median gap, the parent's
    quartile spread and the no-regression verdict with its margin."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    rec = {"name": name, "unit": metric["unit"], "better": metric["better"], "bound": bound,
           "pairs": [], "wins": 0, "ties": 0}
    for seed, p, c in done:
        pv, cv = p["metrics"][name], c["metrics"][name]
        if pv == cv:
            rec["ties"], better = rec["ties"] + 1, "tie"
        elif (cv > pv) == higher:
            rec["wins"], better = rec["wins"] + 1, "change"
        else:
            better = "parent"
        rec["pairs"].append({"seed": seed, "parent": pv, "change": cv, "better": better})
    if not done:
        return rec
    values, stats = {}, {}
    for side in SIDES:
        values[side] = [pair[side] for pair in rec["pairs"]]
        stats[side] = quartiles(values[side])
        rec[side] = dict(zip(("q1", "median", "q3"), stats[side]))
    (pq1, pmed, pq3), cmed = stats["parent"], stats["change"][1]
    rec["gain"] = "shown" if gain_shown(rec["wins"], len(done), stats["parent"], cmed, higher) else "not shown"
    rec.update(ratio=cmed / pmed if pmed else None, median_gap=abs(cmed - pmed), parent_spread=pq3 - pq1,
               margin=bound * abs(pmed),
               verdict=verdict(values["parent"], values["change"], stats["parent"], cmed, bound, higher))
    return rec


def summary_record(pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]) -> dict:
    """Every number of one workload's summary: each pair's two results, the flags, the
    digest count, one ``metric_record`` per end-to-end metric, and whether all was clean."""
    flags = []
    for seed, *results in pairs:
        for side, res in zip(SIDES, results):
            if "error" in res:
                flags.append(f"FLAG seed {seed}: {side} run did not finish ({res['error']})")
            elif res["failed"]:
                flags.append(f"FLAG seed {seed}: {side} failed {res['failed']} of {res['attempted']} calls")
        if all("error" not in r for r in results) and results[0]["digest"] != results[1]["digest"]:
            flags.append(f"FLAG seed {seed}: digests differ, parent {results[0]['digest']} "
                         f"change {results[1]['digest']}")
    done = [(seed, p, c) for seed, p, c in pairs if "error" not in p and "error" not in c]
    return {
        "runs": [{"seed": seed, "parent": p, "change": c} for seed, p, c in pairs],
        "flags": flags,
        "complete_pairs": len(done),
        "digests_equal": sum(p["digest"] == c["digest"] for _, p, c in done),
        "clean": not flags and bool(done),  # no complete pair shows nothing
        "metrics": [metric_record(done, metric) for metric in end_to_end],
    }


def summarize(pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for ``(seed, parent result, change result)`` pairs, and whether all was
    clean: ``summary_record``, printed."""
    record = summary_record(pairs, end_to_end)
    lines = list(record["flags"])
    lines.append(f"digests equal in {record['digests_equal']} of {record['complete_pairs']} complete pairs")
    for rec in record["metrics"]:
        lines.append(f"{rec['name']} ({rec['unit']}, {rec['better']} is better)")
        for pair in rec["pairs"]:
            lines.append(f"  seed {pair['seed']}: parent {pair['parent']:.6g} change {pair['change']:.6g} "
                         f"-> {pair['better']}")
        if not rec["pairs"]:
            lines.append("  no complete pair")
            continue
        for side in SIDES:
            lines.append(f"  {side} median {rec[side]['median']:.6g} "
                         f"(quartiles {rec[side]['q1']:.6g} / {rec[side]['q3']:.6g})")
        lines.append(f"  gain: {rec['gain']} ({GAIN_RULE})")
        ratio = "n/a" if rec["ratio"] is None else f"{rec['ratio']:.4f}"
        lines.append(f"  change/parent {ratio}; change wins {rec['wins']} of {len(rec['pairs'])} "
                     f"(ties {rec['ties']}); median gap {rec['median_gap']:.6g} "
                     f"vs parent quartile spread {rec['parent_spread']:.6g}")
        lines.append(f"  verdict: {rec['verdict']} "
                     f"(bound {rec['bound']:g} x parent median = {rec['margin']:.6g})")
    return lines, record["clean"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workload names")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges (101-110)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", metavar="PATH", help="also write the whole summary to PATH as JSON")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    if not args.seconds > 0:  # NaN too
        parser.error(f"--seconds must be positive, got {args.seconds:g}")
    revisions = {side: {"name": name, "commit": commit_of(name)}
                 for side, name in zip(SIDES, (args.parent, args.change))}
    for rev in revisions.values():
        if rev["commit"] is None:
            parser.error(f"{rev['name']} names no commit of the repository here")
    with extracted({"parent": args.parent, "change": args.change}) as dirs:
        with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
            benchmark = json.load(fh)
        known = [w["name"] for w in benchmark["workloads"]]
        unknown = [w for w in args.workload if w not in known]
        if unknown:
            parser.error(f"--workload {' '.join(unknown)}: the change's BENCHMARK.json lists only "
                         f"{', '.join(known)}")
        return compare(dirs, args.workload, seeds, args.seconds, benchmark["end_to_end"],
                       args.json, revisions)


def compare(dirs: dict[str, str], workloads: list[str], seeds: list[int], seconds: float,
            end_to_end: list[dict], json_path: str | None = None, revisions: dict | None = None) -> int:
    """Runs the alternating pairs in the two copies, prints one summary per workload
    and returns the exit code. With ``json_path``, also writes the revisions, seeds,
    seconds, the distinct host records of the runs and every workload's
    ``summary_record`` there."""
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
    if json_path:
        hosts = []
        for done in pairs.values():
            for _, *results in done:
                for res in results:
                    if res.get("host") is not None and res["host"] not in hosts:
                        hosts.append(res["host"])
        record = {"revisions": revisions, "seeds": seeds, "seconds": seconds, "hosts": hosts,
                  "clean": all_clean,
                  "workloads": {w: summary_record(done, end_to_end) for w, done in pairs.items()}}
        with open(json_path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if all_clean else 1


if __name__ == "__main__":
    sys.exit(main())
