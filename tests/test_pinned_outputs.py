"""Checked-in digests of the benchmark workloads, and of league and eval files.

One full-size call of each perfbench workload at seed 7, one small league
with replays, one head-to-head on the same pitch and one default desk league
run by ``taaclab league``, all in a fresh process with BLAS pinned to one
thread (``hostenv.prepare_process``), must write exactly the bytes recorded
here. A change that moves outputs on purpose updates these values and names
old -> new in CHANGES.md.

The bytes depend on the host's BLAS kernels, so the host fields they were
recorded on are checked in too: on a host whose fields differ the test is
skipped with a reason that names the field, since there is nothing to
compare against.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HOST = {"machine": "x86_64", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

WORKLOAD_DIGESTS = {
    "train_taac": "ee656ecd300503708b147ba51074f1d796079fab7eb4838ec7626aa5794ce078",
    "league_desk": "8ab8a4c0dbc13b0bbaed930ef90aee8364fffe00eff542ba6edca53962633984",
    "selfplay_ppo": "3a607978bda163524b03b42edb14a326e81709a569e959b3a61350bd3a72c364",
}

LEAGUE_FILE_DIGESTS = {
    "league_report.json": "ae5de00d9078574763a9b91d9f4a92222a507d4259a9a2b3306b2868130abd33",
    "matches.csv": "f99a2cba1905457fab6a122a12aa20a3b239d41c7c5c541dd0dbd54ce8be7052",
    "replays/game_00000.jsonl": "259731743ae1f9f7840a98adfc0d20ff721c0eb42f66be04b2cec8c693cd32d2",
    "replays/game_00001.jsonl": "e64e644d675845731bade23d8763f32e2928ea70989a7e8ccbda12f879ed8ec8",
    "replays/game_00002.jsonl": "6471cae44bfac3f6020cc9fca96004c6d9d78fcd7258b384b1983e5d37c2f070",
}

# `taaclab league --config C` with C = {"env": {"steps_per_game": 60}, "league":
# {"n_games": 4}, "seed": 3}: the default desk league, 4 games of 60 steps
DESK_LEAGUE_DIGESTS = {
    "league_report.json": "725f7ad17a73b95a14f75c1a8885d7d0e5399836c3652ad0572db75250ab22f2",
    "matches.csv": "02774a832e34352f093220de19b4da382bce33d592318c22d99a89a03529d6aa",
}

# `train_taac` at seed 7 with 3 games of 60 steps and games_per_update = 3: one
# update of 180 transitions, so the counterfactual baseline runs in several blocks
MULTI_BLOCK_TRAIN_DIGEST = "db2d6f9f0d4d2ff39e9a22b2a5a280962dd1e39d5eae3de3ad7a690d537be66b"

# `taaclab eval`'s report: taac against ppo, 4 games on the small pitch, seed 7
HEAD_TO_HEAD_DIGEST = "60b24a04d8abedd71fe245b98daa1468b3c8b2516b116135e9d5ace873d18ea3"

# Runs in a fresh interpreter: the BLAS thread count is read when numpy loads.
_PROBE = r"""
import contextlib, dataclasses, hashlib, io, json, os, sys, tempfile
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
import hostenv
hostenv.prepare_process()
import numpy as np
import workloads
from taaclab import cli, learner
from taaclab.baselines import build_policy
from taaclab.config import CurriculumSettings, LeagueSettings
from taaclab.env import EnvConfig
from taaclab.evaluation import head_to_head, run_league

def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

out = {"host": hostenv.host_record(), "workloads": {}, "league": {}}
with tempfile.TemporaryDirectory() as tmp:
    for name, cls in sorted(workloads.WORKLOADS.items()):
        wl = cls(7, "full")
        run_dir = os.path.join(tmp, name)
        wl.call(run_dir)
        out["workloads"][name] = wl.digest(run_dir)

    # one update over 3 games: the counterfactual baseline runs in several blocks
    cfg = workloads.TrainTaac(7, "full").cfg
    multi = dataclasses.replace(
        cfg, env=workloads.smoke_env(60), out_dir=os.path.join(tmp, "multi"),
        learner=dataclasses.replace(cfg.learner, games_per_update=3),
        curriculum=CurriculumSettings(stage_games=(3, 0, 0, 0))).validate()
    learner.run_curriculum(multi, resume=False)
    with open(os.path.join(tmp, "multi", "training_log.jsonl")) as fh:
        out["multi_block_transitions"] = [json.loads(line)["transitions"] for line in fh]
    out["multi_block_train"] = sha(os.path.join(tmp, "multi", "training_log.jsonl"))

    # small pitch and short games, so goals and respawns happen
    env = EnvConfig(pitch_length=20.0, pitch_width=14.0, goal_width=10.0, steps_per_game=60)
    league = LeagueSettings(n_games=3, teams_per_kind=1, spawn_mode="random_spawns",
                            save_replays=True).validate()
    teams = [(kind, build_policy(kind, workloads.SMOKE_NET, np.random.default_rng([7, k])))
             for k, kind in enumerate(league.kinds)]
    league_dir = os.path.join(tmp, "league")
    run_league(teams, env, league, 7, league_dir)
    for root, _, files in os.walk(league_dir):
        for f in files:
            path = os.path.join(root, f)
            out["league"][os.path.relpath(path, league_dir)] = sha(path)
    goals = 0
    for f in os.listdir(os.path.join(league_dir, "replays")):
        with open(os.path.join(league_dir, "replays", f)) as fh:
            goals += sum(json.loads(line)["goal"] is not None for line in fh)
    out["replay_goals"] = goals

    # the default desk league through `taaclab league`
    desk_cfg = os.path.join(tmp, "desk.json")
    with open(desk_cfg, "w") as fh:
        json.dump({"env": {"steps_per_game": 60}, "league": {"n_games": 4}, "seed": 3,
                   "out_dir": os.path.join(tmp, "desk")}, fh)
    os.environ.pop("TAACLAB_OUT_DIR", None)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["league", "--config", desk_cfg]) == 0
    out["desk_league"] = {f: sha(os.path.join(tmp, "desk", "league", f))
                          for f in ("league_report.json", "matches.csv")}

# the report exactly as `taaclab eval` writes it
report = head_to_head(teams[0][1], teams[2][1], env, 4, 7, spawn_mode="random_spawns")
text = json.dumps(report, indent=2, sort_keys=True) + "\n"
out["head_to_head"] = hashlib.sha256(text.encode()).hexdigest()
out["head_to_head_swapped_decisive"] = any(g["swapped_sides"] and g["score_a"] != g["score_b"]
                                           for g in report["per_game"])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pinned_run() -> dict:
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    for field, recorded in HOST.items():
        if run["host"][field] != recorded:
            pytest.skip(f"digests were recorded with {field} {recorded!r}; "
                        f"this host has {run['host'][field]!r}")
    return run


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_seed_7_workload_digest_is_pinned(pinned_run, workload):
    assert pinned_run["workloads"][workload] == WORKLOAD_DIGESTS[workload]


def test_multi_block_train_taac_digest_is_pinned(pinned_run):
    assert pinned_run["multi_block_transitions"] == [180]  # one update over all three games
    assert pinned_run["multi_block_train"] == MULTI_BLOCK_TRAIN_DIGEST


def test_league_report_matches_and_replays_are_pinned(pinned_run):
    assert pinned_run["replay_goals"] > 0  # the replays cover respawns after goals
    assert pinned_run["league"] == LEAGUE_FILE_DIGESTS


def test_head_to_head_report_is_pinned(pinned_run):
    assert pinned_run["head_to_head_swapped_decisive"]  # the side swap moves a result
    assert pinned_run["head_to_head"] == HEAD_TO_HEAD_DIGEST


def test_cli_desk_league_files_are_pinned(pinned_run):
    assert pinned_run["desk_league"] == DESK_LEAGUE_DIGESTS
