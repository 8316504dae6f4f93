"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import spec
from hostenv import ROOT

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny"],
                          capture_output=True, text=True, timeout=170)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = ({n: u for n, u, _ in spec.END_TO_END} if trace == 0 else dict(spec.PER_LAYER))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"\n{name} {metric['value']!r} {metric['unit']}\n" in proc.stdout
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    host = json.loads(proc.stdout.split("host ", 1)[1].splitlines()[0])
    assert host["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"cpu_count", "python", "numpy"} <= set(host)


def _attributes(modules) -> dict:
    """Identity of every attribute of the modules and of the classes they define."""
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_run_restores_every_wrapped_function(workload, tmp_path):
    import run
    import workloads
    from taaclab import autodiff, baselines, env, evaluation, learner, nets, nn

    modules = (autodiff, baselines, env, evaluation, learner, nets, nn)
    before = _attributes(modules)
    runner = run.measure(workloads.WORKLOADS[workload](3, "tiny"), 0.5, True, str(tmp_path))
    assert runner.failed == 0 and runner.segments[True].repeats >= 1
    assert runner.tracer.first, "traced calls recorded no spans"
    after = _attributes(modules)
    assert after.keys() == before.keys()
    leaked = [key for key in before if after[key] is not before[key]]
    assert not leaked


def test_checks_reject_bad_outputs(tmp_path):
    import workloads

    log = tmp_path / "training_log.jsonl"
    log.write_text(json.dumps({"update": 0, "transitions": 12, "critic_mse": float("nan")}) + "\n")
    problems = workloads._check_log(str(log), games=2, count_field="transitions", per_game=12)
    assert any("non-finite" in p for p in problems)
    assert any("1 log records for 2 games" in p for p in problems)
    assert any("transitions sum 12" in p for p in problems)

    league = workloads.LeagueDesk(3, "tiny")
    league.call(str(tmp_path / "league"))
    assert league.check(str(tmp_path / "league")) == []
    report_path = tmp_path / "league" / "league_report.json"
    report = json.loads(report_path.read_text())
    first = report["teams"][0]
    report["elo_final"][first] += 2.0 ** -30
    report["collaboration"][first]["connectivity"]["mean"] = 1.5
    report_path.write_text(json.dumps(report))
    problems = league.check(str(tmp_path / "league"))
    assert any("Elo" in p for p in problems) and any("connectivity" in p for p in problems)


def test_best_of_keeps_the_fastest_repeat_and_rejects_misaligned_ones():
    from instrument import BestOf

    best = BestOf()
    assert best.add([3.0, 1.0]) and best.add([2.0, 4.0])
    assert best.best.tolist() == [2.0, 1.0] and best.repeats == 2
    assert not best.add([1.0, 1.0, 1.0])
    assert best.repeats == 2


def test_benchmark_json_is_generated_from_spec():
    committed = (ROOT / "BENCHMARK.json").read_text()
    assert committed == spec.benchmark_json()
    doc = json.loads(committed)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_taac",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_blocks_give_the_host_speed():
    import numpy as np
    import reference

    blocks = reference.segments()
    assert blocks.shape == (reference.BLOCKS,) and (blocks > 0).all()
    unloaded = np.full(reference.BLOCKS, reference.UNLOADED_S / reference.BLOCKS)
    assert reference.host_speed(unloaded) == pytest.approx(1.0)
    assert reference.host_speed(2 * unloaded) == pytest.approx(0.5)
