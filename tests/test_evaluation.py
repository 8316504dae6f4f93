import copy
import csv
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taaclab import evaluation
from taaclab.baselines import RandomTeamPolicy, build_policy
from taaclab.cli import main
from taaclab.config import LeagueSettings
from taaclab.env import EnvConfig
from taaclab.evaluation import (
    connectivity_from_positions,
    count_possession_swaps,
    elo_update,
    head_to_head,
    match_metrics,
    mean_pairwise_distance,
    play_fixtures,
    play_match,
    read_replay,
    run_league,
    write_replay,
)
from taaclab.nets import TaacNetConfig

CFG = EnvConfig(steps_per_game=120)


# ---------------------------------------------------------------------------
# Elo


def test_elo_equal_ratings_tie_changes_nothing():
    assert elo_update(1200.0, 1200.0, "tie", 32.0) == (1200.0, 1200.0)


def test_elo_equal_ratings_win_case():
    assert elo_update(1200.0, 1200.0, "win_a", 32.0) == (1216.0, 1184.0)


def test_elo_400_point_favorite_gains_little():
    r_a, r_b = elo_update(1600.0, 1200.0, "win_a", 32.0)
    assert abs((r_a - 1600.0) - 32.0 * (1.0 - 10.0 / 11.0)) < 1e-6
    assert abs((r_a - 1600.0) - 2.909090909090909) < 1e-6


@given(st.integers(800 * 2**20, 2000 * 2**20), st.integers(800 * 2**20, 2000 * 2**20),
       st.sampled_from(["win_a", "win_b", "tie"]), st.floats(1, 64))
@settings(max_examples=60)
def test_elo_conserves_rating_sum_exactly(qa, qb, outcome, k):
    # ratings on the update's dyadic grid, as any table-evolved rating is
    r_a, r_b = qa / 2**20, qb / 2**20
    new_a, new_b = elo_update(r_a, r_b, outcome, k)
    assert new_a + new_b == r_a + r_b


@given(st.lists(st.sampled_from(["win_a", "win_b", "tie"]), min_size=1, max_size=60))
@settings(max_examples=40)
def test_elo_sum_never_drifts_over_a_match_sequence(outcomes):
    r_a, r_b = 1200.0, 1200.0
    for outcome in outcomes:
        r_a, r_b = elo_update(r_a, r_b, outcome, 32.0)
        assert r_a + r_b == 2400.0


@given(st.floats(800, 2000), st.floats(800, 2000), st.floats(1, 64))
@settings(max_examples=60)
def test_elo_monotonicity(r_a, r_b, k):
    new_a, new_b = elo_update(r_a, r_b, "win_a", k)
    assert new_a >= r_a and new_b <= r_b


def test_elo_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        elo_update(1200.0, 1200.0, "draw-ish", 32.0)


# ---------------------------------------------------------------------------
# collaboration metrics


def test_pairwise_distance_degenerate_and_regular_cases():
    assert mean_pairwise_distance(np.zeros((3, 2))) == 0.0
    s = 7.5
    tri = np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * np.sqrt(3) / 2]])
    assert abs(mean_pairwise_distance(tri) - s) < 1e-12
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert abs(mean_pairwise_distance(pts) - 4.0) < 1e-12


def _step_metrics(team0_pos, team1_pos):
    """Both teams' metrics for one step with the players at these positions."""
    positions = np.array([list(team0_pos) + list(team1_pos)], dtype=float)
    per_step = match_metrics(positions, [[]], [True], player_radius=1.5, d_min=5.0, d_max=40.0)
    return {name: values[:, 0] for name, values in per_step.items()}


def test_pairwise_distance_per_team():
    dist = _step_metrics([(0, 0), (3, 0), (0, 4)], [(50, 50), (60, 50), (70, 50)])["pairwise_distance"]
    assert abs(dist[0] - 4.0) < 1e-12
    assert abs(dist[1] - (10 + 10 + 20) / 3) < 1e-12


def test_possession_swaps_fixtures():
    assert count_possession_swaps([], 0) == 0
    assert count_possession_swaps([(0, 0), (1, 0), (0, 0)], 0) == 2
    assert count_possession_swaps([(0, 0), (3, 1), (1, 0)], 0) == 0
    assert count_possession_swaps([(0, 0), (0, 0), (1, 0)], 0) == 1  # repeat, then pass
    assert count_possession_swaps([(0, 0), (1, 0), (0, 0)], 1) == 0  # other team


def test_possession_swaps_reset_at_episode_boundaries():
    def swaps(touches, episode_done):
        return match_metrics(np.zeros((3, 6, 2)), touches, episode_done, 1.5, 5.0, 40.0)["possession_swaps"]

    touches = [[(0, 0)], [], [(1, 0)]]
    # the chain spans steps within an episode, but does not bridge the respawn
    assert swaps(touches, [False, False, True]).tolist() == [[0, 0, 1], [0, 0, 0]]
    assert swaps(touches, [False, True, True]).tolist() == [[0, 0, 0], [0, 0, 0]]
    touches[2] = [[1, 0], [2, 0]]
    assert swaps(touches, [False, True, True]).tolist() == [[0, 0, 1], [0, 0, 0]]


def test_connectivity_all_connected_and_all_far():
    team = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    far_opponents = [(80.0, 50.0), (85.0, 50.0), (90.0, 50.0)]
    assert _step_metrics(team, far_opponents)["connectivity"][0] == 1.0
    spread = [(0.0, 0.0), (90.0, 0.0), (0.0, 55.0)]
    assert _step_metrics(spread, far_opponents)["connectivity"][0] == 0.0


def test_connectivity_obstruction_case():
    team = [(0.0, 0.0), (20.0, 0.0), (10.0, 30.0)]
    blocked = _step_metrics(team, [(10.0, 0.0), (80.0, 50.0), (90.0, 50.0)])["connectivity"][0]
    clear = _step_metrics(team, [(10.0, 10.0), (80.0, 50.0), (90.0, 50.0)])["connectivity"][0]
    assert blocked == pytest.approx(2 / 3)
    assert clear == 1.0
    # removing the obstruction never decreases connectivity
    assert clear >= blocked


def test_connectivity_teammate_can_also_obstruct():
    team = [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0)]  # third teammate sits on the segment
    value = _step_metrics(team, [(80.0, 50.0), (85.0, 50.0), (90.0, 50.0)])["connectivity"][0]
    assert value == pytest.approx(2 / 3)


def loop_mean_pairwise_distance(points):
    """The per-pair reference for ``mean_pairwise_distance``."""
    n = points.shape[0]
    dists = [
        float(np.linalg.norm(points[i] - points[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return float(np.mean(dists))


def loop_point_segment_distance(a, b, c):
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return float(np.linalg.norm(c - a))
    t = float((c - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(c - (a + t * ab)))


def loop_connectivity(team_idx, positions, player_radius, d_min, d_max):
    """The per-pair, per-player reference for ``connectivity_from_positions``."""
    n = len(team_idx)
    connected = 0
    for ai in range(n):
        for bi in range(ai + 1, n):
            i, j = team_idx[ai], team_idx[bi]
            d = float(np.linalg.norm(positions[i] - positions[j]))
            if not d_min <= d <= d_max:
                continue
            blocked = any(
                loop_point_segment_distance(positions[i], positions[j], positions[k]) < player_radius
                for k in range(positions.shape[0])
                if k not in (i, j)
            )
            if not blocked:
                connected += 1
    return connected / (n * (n - 1) / 2)


def test_vectorized_metrics_match_the_loops_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [rng.uniform(0, size, size=(6, 2)) for size in (100.0, 40.0, 12.0) for _ in range(150)]
    # a teammate on the segment, a coincident pair, all six on one spot, and
    # an opponent exactly one radius off the segment
    cases.append(np.array([[0, 0], [20, 0], [10, 0], [80, 50], [85, 50], [90, 50]], dtype=float))
    cases.append(np.array([[5, 5], [5, 5], [30, 5], [17, 5.5], [60, 50], [70, 50]], dtype=float))
    cases.append(np.full((6, 2), 7.0))
    cases.append(np.array([[0, 0], [20, 0], [40, 0], [10, 1.5], [50, 9], [60, 9]], dtype=float))
    # the per-step path on each case and the trajectory path on all of them at once
    trajectory = np.stack(cases)
    seen = set()
    for team in ([0, 1, 2], [3, 4, 5], [2, 0, 5]):
        for d_min in (5.0, 0.0):  # 0 keeps coincident pairs in band
            want = [loop_connectivity(team, p, 1.5, d_min, 40.0) for p in cases]
            per_step = [connectivity_from_positions(team, p, 1.5, d_min, 40.0) for p in cases]
            whole = connectivity_from_positions(team, trajectory, 1.5, d_min, 40.0)
            assert all(type(v) is float for v in per_step)
            assert [v.hex() for v in per_step] == [v.hex() for v in want]
            assert [v.hex() for v in whole] == [v.hex() for v in want]
            seen.update(want)
        want = [loop_mean_pairwise_distance(p[team]) for p in cases]
        per_step = [mean_pairwise_distance(p[team]) for p in cases]
        whole = mean_pairwise_distance(trajectory[:, team])
        assert all(type(v) is float for v in per_step)
        assert [v.hex() for v in per_step] == [v.hex() for v in want]
        assert [v.hex() for v in whole] == [v.hex() for v in want]
    assert seen == {0.0, 1 / 3, 2 / 3, 1.0}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_connectivity_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 100, size=(6, 2))
    value = connectivity_from_positions([0, 1, 2], positions, 1.5, 5.0, 40.0)
    assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# match play


def test_play_match_is_deterministic_and_accounts_all_steps():
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    rec1 = play_match(a, b, CFG, seed=11)
    rec2 = play_match(a, b, CFG, seed=11)
    assert rec1.score == rec2.score
    assert rec1.metrics == rec2.metrics
    assert sum(rec1.episode_lengths) == CFG.steps_per_game
    assert rec1.frames is not None and len(rec1.frames) == CFG.steps_per_game


def test_play_match_different_seeds_differ():
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    rec1 = play_match(a, b, CFG, seed=1, spawn_mode="random_spawns")
    rec2 = play_match(a, b, CFG, seed=2, spawn_mode="random_spawns")
    assert (rec1.frames[0]["players"] != rec2.frames[0]["players"]
            or rec1.frames[0]["ball"] != rec2.frames[0]["ball"])


def test_random_vs_random_is_statistically_even():
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    scores = []
    diffs = []
    for seed in range(40):
        rec = play_match(a, b, EnvConfig(steps_per_game=200), seed=seed,
                         spawn_mode="random_spawns", record_frames=False)
        s = {"win_a": 1.0, "win_b": 0.0, "tie": 0.5}[rec.outcome]
        scores.append(s)
        diffs.append(rec.goal_diff)
    assert abs(np.mean(scores) - 0.5) <= 0.05
    assert abs(np.mean(diffs)) <= 0.2


CRAMPED = EnvConfig(pitch_length=24.0, pitch_width=16.0, goal_width=6.0, steps_per_game=200)


def test_the_trail_gives_back_every_state_the_game_passed_through(monkeypatch):
    """Each state that reset, step and respawn hand the game loop comes back from
    ``trail.take`` field by field, rows after a respawn included; kicking stays
    bool and scores int64, so the scores reach the logs as integers."""
    seen = []

    def recording(fn):
        def wrapped(*args):
            out = fn(*args)
            seen.append(copy.deepcopy(out[0] if isinstance(out, tuple) else out))
            return out
        return wrapped

    for name in ("reset", "step", "respawn"):
        monkeypatch.setattr(evaluation, name, recording(getattr(evaluation, name)))
    game = evaluation.play_game(RandomTeamPolicy(), RandomTeamPolicy(), CRAMPED, "random_spawns",
                                *(np.random.default_rng(k) for k in range(3)))
    assert game.trail.rows == len(seen) > CRAMPED.steps_per_game + 1  # a respawn at least
    fields = ("player_pos", "player_vel", "kicking", "ball_pos", "ball_vel", "scores")
    for row, state in enumerate(seen):
        got = game.trail.take(row)
        for name in fields:
            np.testing.assert_array_equal(getattr(got, name), getattr(state, name), strict=True)
    every = game.trail.take(np.arange(len(seen)))
    assert every.kicking.dtype == bool and every.scores.dtype == np.int64
    assert every.player_pos.shape == (len(seen), 6, 2) and every.ball_vel.shape == (len(seen), 2)
    assert all(type(goals) is int for goals in game.scores.tolist())
    assert all(type(goals) is int for goals in play_match(RandomTeamPolicy(), RandomTeamPolicy(),
                                                          CRAMPED, 5, record_frames=False).score)


@pytest.mark.parametrize("spawn_mode, seed", [("fixed_formation", 1), ("random_spawns", 5)])
def test_replay_round_trip_and_metric_determinism(tmp_path, spawn_mode, seed):
    rec = play_match(RandomTeamPolicy(), RandomTeamPolicy(), CRAMPED, seed, spawn_mode=spawn_mode)
    assert len(rec.episode_lengths) > 2
    assert all(rec.metrics[team]["possession_swaps"] > 0 for team in "01")
    path = tmp_path / "replay.jsonl"
    write_replay(rec.frames, path)
    frames = read_replay(path)
    assert frames == rec.frames

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"env": dataclasses.asdict(CRAMPED)}))
    csv_path = tmp_path / "frames.csv"
    assert main(["replay", "--match", str(path), "--out", str(csv_path), "--config", str(config)]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(frames)

    # per-frame references: loop metrics, and the episode's whole touch chain counted afresh
    dists, conns = [[], []], [[], []]
    swaps, chain = [0, 0], []
    for frame, row in zip(frames, rows):
        positions = np.array([p["pos"] for p in frame["players"]])
        chain += frame["touches"]
        want = {"t": str(frame["t"]), "episode": str(frame["episode"]),
                "score_0": str(frame["scores"][0]), "score_1": str(frame["scores"][1]),
                "goal": "" if frame["goal"] is None else str(frame["goal"]),
                "episode_done": str(int(frame["episode_done"]))}
        for team in range(2):
            idx = [i for i, p in enumerate(frame["players"]) if p["team"] == team]
            dists[team].append(loop_mean_pairwise_distance(positions[idx]))
            conns[team].append(loop_connectivity(idx, positions, 1.5, 5.0, 40.0))
            want[f"pairdist_{team}"] = f"{dists[team][-1]:.6f}"
            want[f"conn_{team}"] = f"{conns[team][-1]:.6f}"
            want[f"swaps_{team}"] = str(swaps[team] + count_possession_swaps(chain, team))
        assert row == want
        if frame["episode_done"]:
            swaps = [swaps[team] + count_possession_swaps(chain, team) for team in range(2)]
            chain = []
    for team in range(2):
        assert rec.metrics[str(team)] == {"pairwise_distance": float(np.mean(dists[team])),
                                          "connectivity": float(np.mean(conns[team])),
                                          "possession_swaps": swaps[team]}


# ---------------------------------------------------------------------------
# league


def _league_cfg(**kw):
    base = dict(n_games=12, teams_per_kind=1, kinds=("random",), elo_k=32.0,
                elo_initial=1200.0, conn_d_min=5.0, conn_d_max=40.0,
                spawn_mode="fixed_formation", save_replays=False, threads=1)
    base.update(kw)
    return LeagueSettings(**base)


def test_run_league_reports_and_bookkeeping(tmp_path):
    teams = [(f"rand-{i}", RandomTeamPolicy()) for i in range(4)]
    report = run_league(teams, CFG, _league_cfg(), seed=3, out_dir=str(tmp_path))
    totals = report["outcome_totals"]
    assert totals["wins"] + totals["losses"] + totals["ties"] == report["n_games"]
    gd = np.array(report["goal_diff_matrix"])
    np.testing.assert_allclose(gd, -gd.T, atol=1e-12)
    assert os.path.exists(tmp_path / "league_report.json")
    assert os.path.exists(tmp_path / "matches.csv")
    with open(tmp_path / "matches.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == report["n_games"] + 1  # header + one row per game
    for name in report["teams"]:
        assert name in report["collaboration"]
        assert "pairwise_distance" in report["collaboration"][name]


def _tables_from_rows(rows: list[dict], names: list, elo_k: float, elo_initial: float) -> dict:
    """The league tables rebuilt with a plain loop over matches.csv's rows, in game order."""
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    wins, ties, games = ([[0] * n for _ in range(n)] for _ in range(3))
    diff_sum = [[0] * n for _ in range(n)]
    totals = {"wins": 0, "losses": 0, "ties": 0}
    ratings = {name: elo_initial for name in names}
    trajectories = {name: [] for name in names}
    for row in rows:
        i, j = index[row["team_a"]], index[row["team_b"]]
        score_a, score_b = int(row["score_a"]), int(row["score_b"])
        outcome = "win_a" if score_a > score_b else "win_b" if score_b > score_a else "tie"
        assert row["outcome"] == outcome and int(row["goal_diff"]) == score_a - score_b
        if outcome == "win_a":
            wins[i][j] += 1
            totals["wins"] += 1
        elif outcome == "win_b":
            wins[j][i] += 1
            totals["losses"] += 1
        else:
            ties[i][j] += 1
            ties[j][i] += 1
            totals["ties"] += 1
        games[i][j] += 1
        games[j][i] += 1
        diff_sum[i][j] += score_a - score_b
        diff_sum[j][i] -= score_a - score_b
        r_a, r_b = elo_update(ratings[row["team_a"]], ratings[row["team_b"]], outcome, elo_k)
        ratings[row["team_a"]], ratings[row["team_b"]] = r_a, r_b
        trajectories[row["team_a"]].append([int(row["game"]), r_a])
        trajectories[row["team_b"]].append([int(row["game"]), r_b])
    return {
        "win_matrix": wins,
        "tie_matrix": ties,
        "goal_diff_matrix": [[diff_sum[i][j] / games[i][j] if games[i][j] else 0.0 for j in range(n)]
                             for i in range(n)],
        "outcome_totals": totals,
        "elo_final": ratings,
        "elo_trajectories": trajectories,
    }


def _league_from_csv(tmp_path, n_teams: int, n_games: int, seed: int):
    teams = [(f"rand-{i}", RandomTeamPolicy()) for i in range(n_teams)]
    short = dataclasses.replace(CRAMPED, steps_per_game=60)
    report = run_league(teams, short, _league_cfg(n_games=n_games, elo_k=24.0, elo_initial=1500.0),
                        seed=seed, out_dir=str(tmp_path))
    with open(tmp_path / "matches.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["game"]) for row in rows] == list(range(n_games))
    assert report == json.loads((tmp_path / "league_report.json").read_text())
    return report, rows, _tables_from_rows(rows, report["teams"], 24.0, 1500.0)


@pytest.mark.parametrize("n_teams, n_games, seed", [(4, 12, 0), (3, 9, 5), (6, 20, 11)])
def test_league_tables_equal_a_loop_over_matches_csv(tmp_path, n_teams, n_games, seed):
    report, rows, want = _league_from_csv(tmp_path, n_teams, n_games, seed)
    assert {key: report[key] for key in want} == want
    assert 0 < report["outcome_totals"]["ties"] < n_games  # decisive games and ties both occur


def test_a_team_that_never_plays_has_zero_rows_and_no_collaboration_stats(tmp_path):
    report, rows, want = _league_from_csv(tmp_path, 5, 2, 3)
    assert {key: report[key] for key in want} == want
    idle = [k for k, name in enumerate(report["teams"])
            if all(name not in (row["team_a"], row["team_b"]) for row in rows)]
    assert idle
    for k in idle:
        name = report["teams"][k]
        for key in ("win_matrix", "tie_matrix", "goal_diff_matrix"):
            assert report[key][k] == [0] * 5 and [row[k] for row in report[key]] == [0] * 5
        assert report["elo_final"][name] == 1500.0 and report["elo_trajectories"][name] == []
        assert report["collaboration"][name] == {metric: {"mean": None, "std": None}
                                                 for metric in evaluation.METRIC_COLUMNS}


def test_league_tables_count_a_pair_played_in_both_orders(tmp_path):
    report, rows, want = _league_from_csv(tmp_path, 2, 6, 2)
    assert {(row["team_a"], row["team_b"]) for row in rows} == {("rand-0", "rand-1"), ("rand-1", "rand-0")}
    assert {key: report[key] for key in want} == want
    assert report["win_matrix"][0][1] + report["win_matrix"][1][0] + report["tie_matrix"][0][1] == 6


def test_run_league_deterministic_across_thread_counts(tmp_path):
    teams = [(f"rand-{i}", RandomTeamPolicy()) for i in range(3)]
    r1 = run_league(teams, CFG, _league_cfg(threads=1), seed=9,
                    out_dir=str(tmp_path / "a"))
    r2 = run_league(teams, CFG, _league_cfg(threads=3), seed=9,
                    out_dir=str(tmp_path / "b"))
    assert r1["elo_final"] == r2["elo_final"]
    assert r1["win_matrix"] == r2["win_matrix"]
    with open(tmp_path / "a" / "league_report.json", "rb") as f1, \
         open(tmp_path / "b" / "league_report.json", "rb") as f2:
        assert f1.read() == f2.read()

    # fixtures of two TAAC (either kind) or two PPO teams play from one forward over both
    # teams, whose stacked weights live inside the game, never on the policies the threads share
    smoke = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2, embed_hidden=32, post_hidden=32)
    teams = [(f"{kind}-{i}", build_policy(kind, smoke, np.random.default_rng([k, i])))
             for k, kind in enumerate(("taac", "ppo", "taac_ablation")) for i in range(2)]
    reports = []
    for threads in (1, 3):
        out = tmp_path / f"same-kind-{threads}"
        run_league(teams, CFG, _league_cfg(threads=threads), seed=9, out_dir=str(out))
        reports.append((out / "league_report.json").read_bytes())
        with open(out / "matches.csv") as fh:
            kinds = [(row["team_a"][:-2], row["team_b"][:-2]) for row in csv.DictReader(fh)]
        assert {("taac", "taac"), ("ppo", "ppo")} <= set(kinds)  # both kinds pair
        assert {("taac", "taac_ablation"), ("taac_ablation", "taac")} & set(kinds)  # a mixed TAAC pair
    assert reports[0] == reports[1]


def test_run_league_saves_replays_when_asked(tmp_path):
    teams = [("a", RandomTeamPolicy()), ("b", RandomTeamPolicy())]
    run_league(teams, CFG, _league_cfg(n_games=2, save_replays=True), seed=1,
               out_dir=str(tmp_path))
    replays = sorted(os.listdir(tmp_path / "replays"))
    assert replays == ["game_00000.jsonl", "game_00001.jsonl"]
    frames = read_replay(tmp_path / "replays" / replays[0])
    assert len(frames) == CFG.steps_per_game


def test_run_league_writes_each_replay_before_it_plays_the_next_game(tmp_path, monkeypatch):
    calls = []
    play_match, write_replay = evaluation.play_match, evaluation.write_replay

    def logged_play(*args, **kwargs):
        calls.append("play")
        return play_match(*args, **kwargs)

    def logged_write(frames, path):
        calls.append(os.path.basename(path))
        write_replay(frames, path)

    monkeypatch.setattr(evaluation, "play_match", logged_play)
    monkeypatch.setattr(evaluation, "write_replay", logged_write)
    teams = [("a", RandomTeamPolicy()), ("b", RandomTeamPolicy())]
    run_league(teams, CFG, _league_cfg(n_games=3, save_replays=True), seed=1, out_dir=str(tmp_path))
    assert calls == ["play", "game_00000.jsonl", "play", "game_00001.jsonl", "play", "game_00002.jsonl"]


def test_league_bundle_is_relocatable(tmp_path):
    teams = [("a", RandomTeamPolicy()), ("b", RandomTeamPolicy())]
    dirs = [tmp_path / "first", tmp_path / "elsewhere" / "second"]
    for out in dirs:
        run_league(teams, CFG, _league_cfg(n_games=2, save_replays=True), seed=1, out_dir=str(out))
    first, second = ((out / "matches.csv").read_bytes() for out in dirs)
    assert first == second
    with open(dirs[1] / "matches.csv") as fh:
        paths = [row["replay"] for row in csv.DictReader(fh)]
    assert paths == ["replays/game_00000.jsonl", "replays/game_00001.jsonl"]
    assert all((dirs[1] / p).is_file() for p in paths)


def test_failed_replace_keeps_the_previous_league_report_and_leaves_no_temp_file(tmp_path, monkeypatch):
    teams = [("a", RandomTeamPolicy()), ("b", RandomTeamPolicy())]
    run_league(teams, CFG, _league_cfg(n_games=2), seed=1, out_dir=str(tmp_path))
    before = (tmp_path / "league_report.json").read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        run_league(teams, CFG, _league_cfg(n_games=3), seed=2, out_dir=str(tmp_path))
    assert (tmp_path / "league_report.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["league_report.json", "matches.csv"]


def test_run_league_rejects_duplicate_names():
    teams = [("x", RandomTeamPolicy()), ("x", RandomTeamPolicy())]
    with pytest.raises(ValueError):
        run_league(teams, CFG, _league_cfg(), seed=0)


def test_head_to_head_symmetric_and_deterministic():
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    r1 = head_to_head(a, b, CFG, games=4, seed=5)
    r2 = head_to_head(a, b, CFG, games=4, seed=5)
    assert r1 == r2
    assert r1["wins_a"] + r1["wins_b"] + r1["ties"] == 4
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_head_to_head_unswaps_the_scores_of_its_side_swapped_matches():
    # reference: each game played directly, with sides swapped on odd games
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    report = head_to_head(a, b, CRAMPED, games=5, seed=4, spawn_mode="random_spawns")
    seeds = np.random.SeedSequence([4, 3]).generate_state(5, dtype=np.uint64)
    per_game = []
    for g in range(5):
        first, second = (b, a) if g % 2 else (a, b)
        score = play_match(first, second, CRAMPED, int(seeds[g] % (2**62)), spawn_mode="random_spawns",
                           record_frames=False).score
        score_a, score_b = score[::-1] if g % 2 else score
        per_game.append({"game": g, "score_a": score_a, "score_b": score_b, "swapped_sides": g % 2 == 1})
    assert report["per_game"] == per_game
    assert any(g["score_a"] != g["score_b"] for g in per_game if g["swapped_sides"])
    assert report["goals_a"] == sum(g["score_a"] for g in per_game)
    assert report["goals_b"] == sum(g["score_b"] for g in per_game)
    assert report["wins_a"] == sum(g["score_a"] > g["score_b"] for g in per_game)
    assert report["wins_b"] == sum(g["score_b"] > g["score_a"] for g in per_game)
    assert report["ties"] == 5 - report["wins_a"] - report["wins_b"]


def test_play_fixtures_returns_records_in_fixture_order():
    a, b = RandomTeamPolicy(), RandomTeamPolicy()
    fixtures = [(("x", a), ("y", b)), (("y", b), ("x", a)), (("x", a), ("y", b))]
    seeds = [5, 6, 7]
    for threads in (1, 2):
        records = list(play_fixtures(fixtures, seeds, CRAMPED, threads=threads, record_frames=False))
        assert [(rec.team_a, rec.team_b) for rec in records] == [("x", "y"), ("y", "x"), ("x", "y")]
        for rec, (first, second), seed in zip(records, fixtures, seeds):
            assert rec == play_match(first[1], second[1], CRAMPED, seed, record_frames=False,
                                     name_a=first[0], name_b=second[0])
