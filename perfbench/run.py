"""taaclab benchmark: training, league and self-play throughput.

One run measures one workload for ``--seconds`` seconds and prints every
metric by name and unit, then one JSON result as its last line:

    python3 perfbench/run.py --workload train_taac --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from traced calls, which
alternate with untraced ones so the tracing overhead can be reported.
End-to-end times are scaled by the host speed that reference.py measures.
``python3 perfbench/run.py --write-spec`` writes BENCHMARK.json from
spec.py. Metric definitions are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spec
from hostenv import ROOT, host_record, prepare_process

SETUP_GROUPS = 3
SETUP_GROUP_SIZE = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny plays a few short games; only for the benchmark's own tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if not args.write_spec:
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
    return args


def measure_setup(args, work_dir: str) -> list[float]:
    """Seconds from process start to the first game: the fastest of each
    group of fresh processes.

    The first launch is a warm-up (bytecode cache, page cache) and is not
    counted. Taking each group's fastest launch keeps the host's slow spells
    out of the median, as the best-of-repeats segments do for the other
    metrics.
    """
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "first_game.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--out", os.path.join(work_dir, "setup")]
    launches = []
    for _ in range(1 + SETUP_GROUPS * SETUP_GROUP_SIZE):
        shutil.rmtree(os.path.join(work_dir, "setup"), ignore_errors=True)
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        launches.append(float(proc.stdout.split()[-1]) - start)
    timed = launches[1:]
    return [min(timed[g:g + SETUP_GROUP_SIZE]) for g in range(0, len(timed), SETUP_GROUP_SIZE)]


class Runner:
    """Repeats one workload call, checking and digesting every output.

    Timed calls fold the segments between their probe events (and, when
    traced, their spans) into element-wise best-of-repeats arrays.
    """

    def __init__(self, wl, work_dir: str, probes, tracer):
        from instrument import BestOf

        self.wl = wl
        self.work_dir = work_dir
        self.probes = probes
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reference_digest = None
        self.kinds = None
        self.segments = {False: BestOf(), True: BestOf()}
        self.ref_blocks = BestOf()

    def call(self, index: int, traced: bool = False, timed: bool = True) -> bool:
        out_dir = os.path.join(self.work_dir, f"call{index}")
        self.attempted += 1
        self.probes.clear()
        try:
            start = time.perf_counter()
            if traced:
                with self.tracer.tracing(index):
                    self.wl.call(out_dir)
            else:
                self.wl.call(out_dir)
            end = time.perf_counter()
            problems = self.wl.check(out_dir)
            digest = self.wl.digest(out_dir)
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return False
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append(f"output digest {digest[:12]} differs from the first call's "
                            f"{self.reference_digest[:12]} with the same seed")
        if timed and not problems:
            if self.kinds is None:
                self.kinds = list(self.probes.kinds)
            lined_up = (self.probes.kinds == self.kinds
                        and self.segments[traced].add(self.probes.segments(start, end)))
            if traced:
                lined_up = self.tracer.end_call() and lined_up
            if not lined_up:
                problems.append("the call did not repeat the first call's events or spans")
        if problems:
            for p in problems:
                print(f"check failed in call {index}: {p}", file=sys.stderr)
            self.failed += 1
            return False
        return True


def write_spans(tracer, path: str) -> None:
    """The first traced call's spans, each with its best duration and self time."""
    from instrument import CALL, NAME, PARENT, START, WORK

    origin = tracer.first[0][START]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for rec, dur, self_time in zip(tracer.first, tracer.best_dur.best, tracer.best_self.best):
            fh.write(json.dumps({
                "name": rec[NAME], "call": rec[CALL], "parent": rec[PARENT],
                "start_us": round((rec[START] - origin) * 1e6, 3),
                "best_us": round(dur * 1e6, 3), "best_self_us": round(self_time * 1e6, 3),
                "work": rec[WORK],
            }) + "\n")


def measure(wl, seconds: float, trace: bool, work_dir: str) -> Runner:
    """One warm-up call, then calls for ``seconds``, each followed by one pass
    of the reference workload; traced calls alternate with untraced ones when
    ``trace`` is set. Every wrapper is removed on return."""
    import instrument
    import reference
    from taaclab import autodiff, baselines, evaluation, learner, nets, nn

    modules = {"autodiff": autodiff, "nn": nn, "nets": nets, "baselines": baselines,
               "evaluation": evaluation, "learner": learner}
    probes = instrument.Probes()
    runner = Runner(wl, work_dir, probes, instrument.Tracer())
    with instrument.Patcher() as patcher:
        probes.install(patcher, modules)
        if trace:
            runner.tracer.install(patcher, modules)
        runner.call(0, timed=False)  # warm-up: checked and digested, not timed
        reference.segments()
        start = time.perf_counter()
        index = 1
        while time.perf_counter() - start < seconds:
            runner.call(index, traced=trace and index % 2 == 0)
            runner.ref_blocks.add(reference.segments())
            index += 1
    return runner


def run(args) -> int:
    prepare_process()
    # numpy and taaclab load only now, after the thread pins are set
    import instrument
    import numpy as np
    import reference
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup_times = measure_setup(args, work_dir)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
        print("host", json.dumps(host_record(), sort_keys=True))
        print("workload", args.workload, "seed", args.seed, "sizes", json.dumps(wl.sizes()))
        runner = measure(wl, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced, traced = runner.segments[False], runner.segments[True]
    if not untraced.repeats or (args.trace and not traced.repeats):
        print("perfbench: no timed call completed; nothing to report", file=sys.stderr)
        return 1
    best = instrument.timeline_metrics(runner.kinds, untraced.best)
    print("calls", runner.attempted, "failed", runner.failed,
          "failure_ratio", runner.failed / runner.attempted)
    print("digest", runner.reference_digest)
    print("samples", json.dumps({
        "repeats": untraced.repeats, "traced_repeats": traced.repeats,
        "games_per_call": wl.games, "steps_per_call": len(best["steps_us"]),
        "updates_per_call": len(best["updates_s"]), "setup_groups": len(setup_times)}))
    speed = reference.host_speed(runner.ref_blocks.best)
    print(f"host_speed {speed!r}")
    update_s_p50 = float(np.median(best["updates_s"])) if len(best["updates_s"]) else 0.0
    print(f"update_s_p50 {update_s_p50!r} s")
    print(f"step_us_p99 {float(np.percentile(best['steps_us'], 99))!r} us")

    if args.trace:
        extra = {
            "learner.update.s_p50": update_s_p50,
            "trace.overhead": 1.0 - best["total_s"] / float(traced.best.sum()),
        }
        names = [n for n, _ in spec.PER_LAYER]
        values = instrument.layer_metrics(runner.tracer, wl.games, names, spec.MODULES, extra)
        units = dict(spec.PER_LAYER)
        write_spans(runner.tracer, os.path.join(ROOT, ".perfbench-out", f"spans-{args.workload}.jsonl"))
    else:
        games_per_s = wl.games / best["total_s"]
        step_us_p50 = float(np.median(best["steps_us"]))
        setup_s = statistics.median(setup_times)
        print("unscaled", json.dumps({"games_per_s": games_per_s, "step_us_p50": step_us_p50,
                                      "setup_s": setup_s}))
        # times scaled to the unloaded host (see reference.py)
        values = {
            "games_per_s": games_per_s / speed,
            "step_us_p50": step_us_p50 * speed,
            "setup_s": setup_s * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _ in spec.END_TO_END}

    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            fh.write(spec.benchmark_json())
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
