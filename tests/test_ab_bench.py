import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "games_per_s", "unit": "games/s", "better": "higher", "bound": 0.25},
           {"name": "step_us_p50", "unit": "us", "better": "lower", "bound": 0.25}]


def result(games, step, digest="d1", failed=0):
    return {"metrics": {"games_per_s": games, "step_us_p50": step},
            "attempted": 20, "failed": failed, "digest": digest}


def test_parse_run_reads_the_last_json_line_and_the_digest():
    stdout = "\n".join([
        "host {}", "calls 20 failed 1 failure_ratio 0.05", "digest abc123",
        "games_per_s 12.5 games/s",
        json.dumps({"correct": False, "attempted": 20, "failed": 1,
                    "metrics": {"games_per_s": {"value": 12.5, "unit": "games/s"}}}), ""])
    assert ab_bench.parse_run(stdout) == {"metrics": {"games_per_s": 12.5}, "attempted": 20,
                                          "failed": 1, "digest": "abc123"}


def test_parse_seeds_takes_single_seeds_and_inclusive_ranges():
    assert ab_bench.parse_seeds(["7", "101-103"]) == [7, 101, 102, 103]


def test_summary_counts_wins_by_direction_and_flags_problems():
    pairs = [
        (1, result(10.0, 200.0), result(12.0, 190.0)),              # change wins both
        (2, result(11.0, 180.0), result(11.0, 185.0)),              # tie, parent wins step
        (3, result(9.0, 210.0), result(13.0, 210.0, digest="d2")),  # win, tie; digests differ
        (4, result(10.0, 200.0, failed=2), result(12.0, 195.0)),    # a failed call
        (5, {"error": "exit 1: boom"}, result(12.0, 190.0)),         # left out of the stats
    ]
    lines, clean = ab_bench.summarize(pairs, METRICS)
    text = "\n".join(lines)
    assert not clean
    assert "FLAG seed 3: digests differ, parent d1 change d2" in text
    assert "FLAG seed 4: parent failed 2 of 20 calls" in text
    assert "FLAG seed 5: parent run did not finish (exit 1: boom)" in text
    assert "digests equal in 3 of 4 complete pairs" in lines
    games = lines.index("games_per_s (games/s, higher is better)")
    step = lines.index("step_us_p50 (us, lower is better)")
    assert lines[games + 1] == "  seed 1: parent 10 change 12 -> change"
    assert lines[games + 2] == "  seed 2: parent 11 change 11 -> tie"
    assert lines[step + 2] == "  seed 2: parent 180 change 185 -> parent"
    # four complete pairs: parent games 9, 10, 10, 11 -> median 10, quartiles 9.75 / 10.25
    assert "  parent median 10 (quartiles 9.75 / 10.25)" in lines
    assert "  change median 12 (quartiles 11.75 / 12.25)" in lines
    assert ("  change/parent 1.2000; change wins 3 of 4 (ties 1); "
            "median gap 2 vs parent quartile spread 0.5") in lines
    assert lines[-1] == ("  change/parent 0.9625; change wins 2 of 4 (ties 1); "
                         "median gap 7.5 vs parent quartile spread 7.5")


def test_summary_of_clean_pairs_is_clean():
    lines, clean = ab_bench.summarize([(1, result(10.0, 200.0), result(10.5, 199.0))], METRICS)
    assert clean and not any(line.startswith("FLAG") for line in lines)
    assert "digests equal in 1 of 1 complete pairs" in lines
    assert "  parent median 10 (quartiles 10 / 10)" in lines


@pytest.mark.parametrize("items", [["x"], ["5-x"]])
def test_parse_seeds_rejects_non_numbers(items):
    with pytest.raises(ValueError):
        ab_bench.parse_seeds(items)


def test_main_runs_one_alternating_pair_per_seed_and_workload(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    runs = []

    def fake_run_side(checkout, workload, seed, seconds):
        runs.append((seed, workload, checkout))
        side = "change" if checkout == str(tmp_path) else "parent"
        games = {"wa": {"parent": 10.0, "change": 12.0}, "wb": {"parent": 20.0, "change": 19.0}}
        return result(games[workload][side] + seed, 200.0)

    monkeypatch.setattr(ab_bench, "run_side", fake_run_side)
    code = ab_bench.main(["old", str(tmp_path), "--workload", "wa", "wb", "--seeds", "1-2",
                          "--seconds", "5"])
    assert code == 0
    new = str(tmp_path)
    assert runs == [(1, "wa", "old"), (1, "wa", new), (1, "wb", "old"), (1, "wb", new),
                    (2, "wa", new), (2, "wa", "old"), (2, "wb", new), (2, "wb", "old")]
    lines = capsys.readouterr().out.splitlines()
    first, second = lines.index("workload wa, 2 pairs, 5 s runs"), lines.index("workload wb, 2 pairs, 5 s runs")
    assert first < second
    assert "  seed 2: parent 12 change 14 -> change" in lines[first:second]
    assert "  seed 2: parent 22 change 21 -> parent" in lines[second:]
