import importlib.util
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import textwrap

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
    assert lines[-2] == ("  change/parent 0.9625; change wins 2 of 4 (ties 1); "
                         "median gap 7.5 vs parent quartile spread 7.5")
    # parent steps 180, 200, 200, 210: spread 7.5 is within 0.25 x 200; change 192.5 is better
    assert lines[-1] == "  verdict: within bound (bound 0.25 x parent median = 50)"


def test_summary_of_clean_pairs_is_clean():
    lines, clean = ab_bench.summarize([(1, result(10.0, 200.0), result(10.5, 199.0))], METRICS)
    assert clean and not any(line.startswith("FLAG") for line in lines)
    assert "digests equal in 1 of 1 complete pairs" in lines
    assert "  parent median 10 (quartiles 10 / 10)" in lines


@pytest.mark.parametrize("parent, change, higher, expected", [
    ([10.0, 10.2, 9.8, 10.1], [9.0, 9.2, 8.9, 9.1], True, "within bound"),      # 10% worse
    ([10.0, 10.2, 9.8, 10.1], [7.0, 7.2, 7.1, 6.9], True, "worse than bound"),  # 30% worse
    ([100.0, 101.0, 99.0, 100.0], [120.0, 122.0, 121.0, 123.0], False, "within bound"),
    ([100.0, 101.0, 99.0, 100.0], [127.0, 128.0, 126.0, 129.0], False, "worse than bound"),
    # parent spread 8.75 .. 16.25 exceeds 0.25 x 12.5, and the runs overlap
    ([5.0, 10.0, 15.0, 20.0], [11.0, 12.0, 13.0, 14.0], True, "unresolved"),
    ([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 30.0], False, "unresolved"),
    # the same spread, but every change run beats every parent run
    ([5.0, 10.0, 15.0, 20.0], [21.0, 22.0, 23.0, 24.0], True, "within bound"),
    ([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 4.0], False, "within bound"),
])
def test_verdict_compares_the_median_gap_with_the_bound(parent, change, higher, expected):
    parent_q, change_med = ab_bench.quartiles(parent), ab_bench.quartiles(change)[1]
    assert ab_bench.verdict(parent, change, parent_q, change_med, 0.25, higher) == expected


def test_summary_prints_a_verdict_per_metric():
    # games: parent 10, 11, 10, 11 and change 6, 7, 6, 7; steps: parent 200, 280, 200, 280
    # (spread 80 > 0.25 x 240) and change 220 .. 280, which do not all beat the parent's
    pairs = [(seed, result(10.0 + seed % 2, 200.0 + 80 * (seed % 2)),
              result(6.0 + seed % 2, 200.0 + 20 * seed)) for seed in range(1, 5)]
    lines, _ = ab_bench.summarize(pairs, METRICS)
    verdicts = [line for line in lines if line.startswith("  verdict: ")]
    assert verdicts == ["  verdict: worse than bound (bound 0.25 x parent median = 2.625)",
                        "  verdict: unresolved (bound 0.25 x parent median = 60)"]


def gain_lines(parent_steps, change_steps):
    """The ``gain:`` line of each metric for pairs with equal games/s and these step times."""
    pairs = [(seed, result(10.0, p), result(10.0, c))
             for seed, (p, c) in enumerate(zip(parent_steps, change_steps), 1)]
    lines, _ = ab_bench.summarize(pairs, METRICS)
    return [line.split(" (")[0] for line in lines if line.startswith("  gain: ")]


def test_gain_is_shown_for_nine_wins_in_ten_with_a_gap_over_the_spread():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 90.0]
    change = [95.0, 96.0, 94.0, 95.0, 97.0, 93.0, 95.0, 96.0, 94.0, 95.0]  # the last pair is lost
    # games/s ties in every pair: no gain; steps: 9 wins, gap 5 over the spread 1.75
    assert gain_lines(parent, change) == ["  gain: not shown", "  gain: shown"]
    assert ab_bench.gain_shown(9, 10, ab_bench.quartiles(parent), 95.0, higher=False)


def test_gain_is_not_shown_for_eight_wins_in_ten():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 90.0, 90.0]
    change = [95.0, 96.0, 94.0, 95.0, 97.0, 93.0, 95.0, 96.0, 95.0, 95.0]
    assert gain_lines(parent, change)[1] == "  gain: not shown"
    # the gap alone would do: the win count is short
    assert ab_bench.gain_shown(9, 10, ab_bench.quartiles(parent), 95.0, higher=False)


def test_gain_is_not_shown_for_ten_wins_inside_the_parent_spread():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 108.0, 92.0, 103.0, 97.0]
    change = [p - 1.0 for p in parent]  # wins every pair, but the gap 1 is under the spread 9
    assert gain_lines(parent, change)[1] == "  gain: not shown"
    parent_q = ab_bench.quartiles(parent)  # 95.5 / 100 / 104.5
    assert not ab_bench.gain_shown(10, 10, parent_q, 99.0, higher=False)
    assert ab_bench.gain_shown(10, 10, parent_q, 89.0, higher=False)
    assert ab_bench.gain_shown(10, 10, parent_q, 111.0, higher=True)
    assert not ab_bench.gain_shown(10, 10, parent_q, 89.0, higher=True)  # a gap the wrong way


@pytest.mark.parametrize("items", [["x"], ["5-x"], ["110-101"]])
def test_parse_seeds_rejects_non_numbers(items):
    with pytest.raises(ValueError):
        ab_bench.parse_seeds(items)


# Stands in for perfbench/run.py: reports the commit's games/s from marker.txt and
# appends the directory it ran in to the file that $AB_BENCH_CWDS names.
STUB_RUN = textwrap.dedent("""
    import json, os
    with open(os.environ["AB_BENCH_CWDS"], "a") as fh:
        fh.write(os.getcwd() + "\\n")
    games = float(open("marker.txt").read())
    print("digest same")
    print(json.dumps({"attempted": 3, "failed": 0, "metrics": {
        "games_per_s": {"value": games}, "step_us_p50": {"value": 200.0}}}))
""")


@pytest.fixture
def two_commits(tmp_path, monkeypatch):
    """A throwaway repository whose HEAD~1 reports 10 games/s and HEAD 12 on its
    workloads ``wa`` and ``wb``; the test runs in a subdirectory of it."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "wa"}, {"name": "wb"}],
                                                     "end_to_end": METRICS}))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    for games in ("10", "12"):
        (repo / "marker.txt").write_text(games)
        git("add", "-A")
        git("commit", "-q", "-m", f"{games} games/s")
    monkeypatch.chdir(repo / "perfbench")
    monkeypatch.setenv("AB_BENCH_CWDS", str(tmp_path / "cwds.txt"))
    return repo


def test_main_runs_each_revision_from_its_own_extracted_copy(two_commits, tmp_path, capsys):
    (two_commits / "marker.txt").write_text("99")  # the working tree is never read
    assert ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "--seeds", "1-2",
                          "--seconds", "1"]) == 0
    assert "  seed 1: parent 10 change 12 -> change" in capsys.readouterr().out.splitlines()
    cwds = (tmp_path / "cwds.txt").read_text().split()
    assert [os.path.basename(d) for d in cwds] == ["parent", "change", "change", "parent"]
    (tmp,) = {os.path.dirname(d) for d in cwds}  # sibling directories
    assert not tmp.startswith(str(two_commits))
    assert not any(os.path.exists(d) for d in [tmp, *cwds])  # nothing is left behind
    status = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True)
    assert status.stdout == " M marker.txt\n"


def test_main_rejects_a_revision_that_names_no_commit(two_commits, capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["HEAD~5", "HEAD", "--workload", "wa", "--seeds", "1"])
    assert exit_info.value.code == 2
    assert "HEAD~5 names no commit" in capsys.readouterr().err


def test_main_runs_one_alternating_pair_per_seed_and_workload(two_commits, monkeypatch, capsys):
    runs = []

    def fake_run_side(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        runs.append((seed, workload, side))
        games = {"wa": {"parent": 10.0, "change": 12.0}, "wb": {"parent": 20.0, "change": 19.0}}
        return result(games[workload][side] + seed, 200.0)

    monkeypatch.setattr(ab_bench, "run_side", fake_run_side)
    code = ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "wb", "--seeds", "1-2",
                          "--seconds", "5"])
    assert code == 0
    assert runs == [(1, "wa", "parent"), (1, "wa", "change"), (1, "wb", "parent"),
                    (1, "wb", "change"), (2, "wa", "change"), (2, "wa", "parent"),
                    (2, "wb", "change"), (2, "wb", "parent")]
    lines = capsys.readouterr().out.splitlines()
    first, second = lines.index("workload wa, 2 pairs, 5 s runs"), lines.index("workload wb, 2 pairs, 5 s runs")
    assert first < second
    assert "  seed 2: parent 12 change 14 -> change" in lines[first:second]
    assert "  seed 2: parent 22 change 21 -> parent" in lines[second:]


def test_main_rejects_a_reversed_seed_range_as_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "run_side", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "--seeds", "110-101"])
    assert exit_info.value.code == 2
    assert "110-101 is reversed" in capsys.readouterr().err


def test_main_rejects_a_workload_the_benchmark_does_not_list(two_commits, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "run_side", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "wc", "--seeds", "1"])
    assert exit_info.value.code == 2
    assert "--workload wc: the change's BENCHMARK.json lists only wa, wb" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-5", "nan"])
def test_main_rejects_non_positive_seconds(two_commits, monkeypatch, capsys, seconds):
    monkeypatch.setattr(ab_bench, "run_side", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "--seeds", "1", "--seconds", seconds])
    assert exit_info.value.code == 2
    assert "--seconds must be positive" in capsys.readouterr().err


def test_main_fails_when_no_pair_completed(two_commits, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "run_side", lambda *args: {"error": "exit 1: boom"})
    assert ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "--seeds", "3"]) == 1
    assert "  no complete pair" in capsys.readouterr().out.splitlines()
    lines, clean = ab_bench.summarize([], METRICS)
    assert not clean and "digests equal in 0 of 0 complete pairs" in lines


def numbers(value):
    """Every number in a JSON-like value, strings left out."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[+-]?\d+)?(?![\w.])")


def assert_record_holds_the_printed_numbers(lines, record):
    """Each number printed (``.6g``, or ``.4f`` for the ratio) rounds a number of the record."""
    held = numbers(record)
    for line in lines:
        for token in NUMBER.findall(line.replace(ab_bench.GAIN_RULE, "")):
            places = len(token.partition(".")[2]) if "e" not in token else 0
            assert any(math.isclose(float(token), n, rel_tol=1e-5)
                       or (places and abs(float(token) - n) <= 0.5 * 10.0 ** -places)
                       for n in held), (token, line)


def test_summary_record_holds_every_number_the_summary_printed():
    pairs = [
        (1, result(10.0, 200.0), result(12.0, 190.0)),
        (2, result(11.0, 180.0), result(11.0, 185.0)),
        (3, result(9.0, 210.0), result(13.0, 210.0, digest="d2")),
        (4, result(10.0, 200.0, failed=2), result(12.0, 195.0)),
        (5, {"error": "exit 1: boom"}, result(12.0, 190.0)),
    ]
    lines, clean = ab_bench.summarize(pairs, METRICS)
    record = ab_bench.summary_record(pairs, METRICS)
    assert_record_holds_the_printed_numbers(lines, record)
    assert record["clean"] is clean is False
    assert record["flags"] == [line for line in lines if line.startswith("FLAG")]
    assert (record["complete_pairs"], record["digests_equal"]) == (4, 3)
    games, steps = record["metrics"]
    assert games["parent"] == {"q1": 9.75, "median": 10.0, "q3": 10.25}
    assert (games["wins"], games["ties"], games["ratio"]) == (3, 1, 1.2)
    for rec in record["metrics"]:
        assert f"  gain: {rec['gain']} ({ab_bench.GAIN_RULE})" in lines
        assert any(line.startswith(f"  verdict: {rec['verdict']} (") for line in lines)
    assert [pair["better"] for pair in steps["pairs"]] == ["change", "parent", "tie", "change"]


def test_main_writes_the_json_record_of_the_run(two_commits, monkeypatch, capsys, tmp_path):
    host = {"cpu_count": 2, "blas": "b"}

    def fake_run_side(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        return dict(result(10.0 + seed + (side == "change"), 200.0 - seed), host=host)

    monkeypatch.setattr(ab_bench, "run_side", fake_run_side)
    path = tmp_path / "bench.json"
    assert ab_bench.main(["HEAD~1", "HEAD", "--workload", "wa", "wb", "--seeds", "1-3",
                          "--seconds", "5", "--json", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text())
    heads = [subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True,
                            check=True).stdout.strip() for rev in ("HEAD~1", "HEAD")]
    assert record["revisions"] == {"parent": {"name": "HEAD~1", "commit": heads[0]},
                                   "change": {"name": "HEAD", "commit": heads[1]}}
    assert (record["seeds"], record["seconds"], record["hosts"], record["clean"]) == ([1, 2, 3], 5, [host], True)
    assert list(record["workloads"]) == ["wa", "wb"]
    first, second = printed.index("workload wa, 3 pairs, 5 s runs"), printed.index("workload wb, 3 pairs, 5 s runs")
    for workload, lines in (("wa", printed[first + 1:second]), ("wb", printed[second + 1:])):
        wl = record["workloads"][workload]
        assert_record_holds_the_printed_numbers(lines, dict(wl, seconds=5))
        assert [run["seed"] for run in wl["runs"]] == [1, 2, 3]
        assert wl["metrics"][0]["change"]["median"] == 13.0


def test_parse_host_reads_the_host_line():
    assert ab_bench.parse_host('calls 3\nhost {"cpu_count": 2}\ndigest x\n') == {"cpu_count": 2}
    assert ab_bench.parse_host("digest x\n") is None
