import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from taaclab.cli import main
from taaclab.config import (
    ConfigError,
    RunConfig,
    build_config,
    config_to_dict,
    echo_config,
    parse_config,
)


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_empty_object_gives_all_defaults(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"out_dir": str(tmp_path / "out")})
    cfg = parse_config(path)
    defaults = RunConfig()
    assert cfg.env == defaults.env
    assert cfg.learner == defaults.learner
    assert cfg.seed == defaults.seed


def test_gamma_out_of_bounds_rejected_by_name(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"learner": {"gamma": 1.5}})
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(path)


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="learner.gamm"):
        build_config({"learner": {"gamm": 0.9}})
    with pytest.raises(ConfigError, match="unknown key"):
        build_config({"lerner": {}})
    # removed knobs: one critic target, one advantage, spawns drawn only from a passed generator,
    # and ablation flags that the policy kind fixes
    for section, key in (("learner", "critic_target"), ("learner", "advantage_mode"), ("env", "seed"),
                         ("policy", "actor_attention_off"), ("policy", "critic_V_fixed")):
        with pytest.raises(ConfigError, match=f"^unknown key {section}.{key}$"):
            build_config({section: {key: 0}})


def test_type_mismatch_rejected_with_path():
    with pytest.raises(ConfigError, match="env.pitch_length"):
        build_config({"env": {"pitch_length": "wide"}})
    with pytest.raises(ConfigError, match="seed"):
        build_config({"seed": 1.5})
    with pytest.raises(ConfigError, match="league.kinds"):
        build_config({"league": {"kinds": [3]}})


# json reads NaN, Infinity and overflowing literals such as 1e400 (as inf)
@pytest.mark.parametrize("text, key", [
    ('{"env": {"pitch_length": NaN}}', "env.pitch_length"),
    ('{"learner": {"actor_lr": Infinity}}', "learner.actor_lr"),
    ('{"net": {"obs_scale": NaN}}', "net.obs_scale"),
    ('{"env": {"steps_per_game": -Infinity}}', "env.steps_per_game"),
    ('{"seed": Infinity}', "seed"),
    ('{"seed": 1e400}', "seed"),
], ids=["float-nan", "float-inf", "net-nan", "int-minus-inf", "seed-inf", "seed-overflow"])
def test_non_finite_numbers_rejected_with_path(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
        parse_config(str(path))


def test_cli_non_finite_seed_is_validation_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": Infinity}')
    assert main(["train", "--config", str(path)]) == 2
    assert "seed: expected a finite number, got inf" in capsys.readouterr().err


def test_round_trip_parse_echo_parse_is_identical(tmp_path):
    out = tmp_path / "out"
    path = write_json(tmp_path / "cfg.json", {
        "env": {"steps_per_game": 123, "theta_exp": 0.02},
        "learner": {"gamma": 0.9, "games_per_update": 3},
        "curriculum": {"stage_games": [1, 2, 3, 4]},
        "league": {"kinds": ["random", "ppo"]},
        "seed": 17,
        "out_dir": str(out),
    })
    cfg = parse_config(path)
    assert not out.exists()  # loading writes nothing
    echo_path = out / "config_echo.json"
    assert echo_config(cfg) == str(echo_path)
    cfg2 = parse_config(str(echo_path))
    assert cfg == cfg2
    assert config_to_dict(cfg) == config_to_dict(cfg2)


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(str(path))


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("TAACLAB_OUT_DIR", str(override))
    path = write_json(tmp_path / "cfg.json", {"out_dir": str(tmp_path / "ignored")})
    cfg = parse_config(path)
    assert cfg.out_dir == str(override)


def test_no_config_path_means_the_defaults_under_the_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TAACLAB_OUT_DIR", str(tmp_path / "env_out"))
    cfg = parse_config(None, override_seed=4)
    assert cfg == dataclasses.replace(RunConfig(), seed=4, out_dir=str(tmp_path / "env_out"))


@pytest.mark.parametrize("net, key", [
    ({"obs_width": 10}, "net.obs_width"),
    ({"n_actions": 24}, "net.n_actions"),
    ({"n_actions": 10}, "net.n_actions"),
], ids=["narrow_obs", "too_many_actions", "too_few_actions"])
def test_a_net_that_does_not_fit_the_env_is_refused_before_any_file(tmp_path, capsys, net, key):
    from taaclab.learner import run_curriculum
    from taaclab.nets import TaacNetConfig

    cfg_path = write_json(tmp_path / "cfg.json", {"net": net, "out_dir": str(tmp_path / "out")})
    assert main(["train", "--config", cfg_path]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    api = dataclasses.replace(RunConfig(out_dir=str(tmp_path / "api")), net=TaacNetConfig(**net))
    with pytest.raises(ConfigError, match=key):
        run_curriculum(api)
    assert not (tmp_path / "api").exists()


def test_run_curriculum_validates_every_section(tmp_path):
    from taaclab.config import PolicySettings
    from taaclab.learner import run_curriculum

    cfg = RunConfig(policy=PolicySettings(kind="ppo", ppo_clip=1.5), out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="policy: ppo_clip"):
        run_curriculum(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["entropy_coef", "conformity_scale"])
def test_a_negative_loss_weight_is_refused_before_any_file(tmp_path, capsys, key):
    # a negative conformity scale would reward agreeing embeddings instead of penalizing them
    path = write_json(tmp_path / "cfg.json", {"learner": {key: -0.05}, "curriculum": {"stage_games": [0, 0, 0, 0]},
                                              "out_dir": str(tmp_path / "out")})
    assert main(["train", "--config", path]) == 2
    assert f"learner: {key} must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"seed": 5, "out_dir": str(tmp_path / "o")})
    cfg = parse_config(path, override_seed=42)
    assert cfg.seed == 42


def test_policy_kind_validated(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        build_config({"policy": {"kind": "dqn"}})


# ---------------------------------------------------------------------------
# CLI


def tiny_config(tmp_path, **extra):
    data = {
        "env": {"steps_per_game": 40},
        "net": {"d_model": 16, "actor_heads": 2, "critic_heads": 2,
                "embed_hidden": 16, "post_hidden": 16},
        "learner": {"snapshot_interval": 5},
        "curriculum": {"stage_games": [1, 0, 0, 0]},
        "league": {"n_games": 4, "teams_per_kind": 1, "kinds": ["random", "taac"]},
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
    }
    data.update(extra)
    return write_json(tmp_path / "cfg.json", data)


def test_cli_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_cli_missing_required_argument_is_usage_error():
    assert main(["train"]) == 1


def test_cli_bad_config_is_validation_error(tmp_path):
    path = write_json(tmp_path / "bad.json", {"learner": {"gamma": 2.0}})
    assert main(["train", "--config", path]) == 2


def test_cli_train_on_a_pitch_too_small_to_spawn_is_validation_error(tmp_path, capsys):
    # six players of radius 1.5 cannot all fit: the centers lie in a 4 x 4 square
    cfg_path = tiny_config(tmp_path, env={"pitch_length": 7.0, "pitch_width": 7.0,
                                          "goal_width": 4.0, "steps_per_game": 40})
    assert main(["train", "--config", cfg_path]) == 2
    assert "no free spot" in capsys.readouterr().err


def test_cli_train_league_eval_replay_pipeline(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    assert (out / "training_log.jsonl").exists()
    snapshots = sorted(os.listdir(out / "snapshots"))
    assert snapshots

    assert main(["league", "--config", cfg_path]) == 0
    assert (out / "league" / "league_report.json").exists()
    assert (out / "league" / "matches.csv").exists()

    snap = str(out / "snapshots" / snapshots[-1])
    report_a = tmp_path / "eval_a.json"
    report_b = tmp_path / "eval_b.json"
    assert main(["eval", "--a", snap, "--b", snap, "--games", "2",
                 "--config", cfg_path, "--out", str(report_a)]) == 0
    assert main(["eval", "--a", snap, "--b", snap, "--games", "2",
                 "--config", cfg_path, "--out", str(report_b)]) == 0
    assert report_a.read_bytes() == report_b.read_bytes()

    # produce a replay via a quick match, then export per-frame metrics
    from taaclab.baselines import RandomTeamPolicy
    from taaclab.env import EnvConfig
    from taaclab.evaluation import play_match, write_replay

    rec = play_match(RandomTeamPolicy(), RandomTeamPolicy(),
                     EnvConfig(steps_per_game=30), seed=3)
    replay_path = tmp_path / "replay.jsonl"
    write_replay(rec.frames, replay_path)
    csv_path = tmp_path / "frames.csv"
    assert main(["replay", "--match", str(replay_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 31  # header + one row per frame
    header = lines[0].split(",")
    for column in ("t", "pairdist_0", "pairdist_1", "conn_0", "conn_1",
                   "swaps_0", "swaps_1"):
        assert column in header


def _run_files(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


TINY_NET = {"d_model": 16, "actor_heads": 2, "critic_heads": 2, "embed_hidden": 16, "post_hidden": 16}


@pytest.mark.parametrize("change, key", [
    ({"seed": 12}, "seed"),
    ({"learner": {"snapshot_interval": 5, "actor_lr": 3e-3}}, "learner.actor_lr"),
    ({"net": {**TINY_NET, "d_model": 8}}, "net.d_model"),
    ({"policy": {"kind": "ppo"}}, "policy.kind"),
], ids=["seed", "actor_lr", "d_model", "kind"])
def test_a_resume_under_another_config_is_refused_before_any_write(tmp_path, capsys, change, key):
    assert main(["train", "--config", tiny_config(tmp_path)]) == 0
    out = tmp_path / "out"
    before = _run_files(out)
    assert {"config_echo.json", "training_log.jsonl", "train_state.json"} <= set(before)
    capsys.readouterr()
    longer = {"curriculum": {"stage_games": [2, 0, 0, 0]}}
    assert main(["train", "--config", tiny_config(tmp_path, **longer, **change)]) == 2
    assert f"validation failure: {key} differs" in capsys.readouterr().err
    assert _run_files(out) == before
    assert main(["train", "--fresh", "--config", tiny_config(tmp_path, **longer, **change)]) == 0


def test_a_resume_may_change_only_the_schedule_and_the_output_directory(tmp_path):
    import shutil

    assert main(["train", "--config", tiny_config(tmp_path)]) == 0
    moved = tmp_path / "moved"
    shutil.copytree(tmp_path / "out", moved)
    assert main(["train", "--config", tiny_config(tmp_path, out_dir=str(moved),
                                                  curriculum={"stage_games": [2, 0, 0, 0]})]) == 0
    with open(moved / "training_log.jsonl") as fh:
        assert [json.loads(line)["games"] for line in fh] == [1, 2]
    with open(moved / "config_echo.json") as fh:
        assert json.load(fh)["curriculum"]["stage_games"] == [2, 0, 0, 0]


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with_removed_knob(doc, section, key, value):
    """A state file as a run started before ``section.key`` was removed left it."""
    return {**doc, "config": {**doc["config"], section: {**doc["config"][section], key: value}}}


@pytest.mark.parametrize("edit, message", [
    (_without("config"), "holds no config"),
    (lambda doc: {**doc, "config": 5}, "holds no config"),
    (_without("games_done"), "games_done must be a nonnegative integer, got None"),
    (lambda doc: {**doc, "version": "1"}, "version must be a nonnegative integer, got '1'"),
    (lambda doc: [1, 2], "train_state.json is not an object"),
    # a run whose stored config holds a knob that no longer exists resumes only with --fresh
    (lambda doc: {**doc, "config": {**doc["config"], "learner": {**doc["config"]["learner"],
                                                                 "critic_target": "td"}}},
     "learner.critic_target differs from the run being resumed ('td' -> None)"),
    (_without("version"), "version must be a nonnegative integer, got None"),
    (_without("updates"), "updates must be a nonnegative integer, got None"),
    (lambda doc: {**doc, "games_done": -1}, "games_done must be a nonnegative integer, got -1"),
    (lambda doc: {**doc, "version": -1}, "version must be a nonnegative integer, got -1"),
    (lambda doc: {**doc, "games_done": False}, "games_done must be a nonnegative integer, got False"),
    (lambda doc: {**doc, "updates": True}, "updates must be a nonnegative integer, got True"),
    (lambda doc: {**doc, "version": 1.0}, "version must be a nonnegative integer, got 1.0"),
    (lambda doc: {**doc, "updates": "0"}, "updates must be a nonnegative integer, got '0'"),
    (lambda doc: _with_removed_knob(doc, "learner", "advantage_mode", "coma"),
     "learner.advantage_mode differs from the run being resumed ('coma' -> None)"),
    (lambda doc: _with_removed_knob(doc, "env", "seed", 0),
     "env.seed differs from the run being resumed (0 -> None)"),
    (lambda doc: _with_removed_knob(doc, "policy", "actor_attention_off", False),
     "policy.actor_attention_off differs from the run being resumed (False -> None)"),
], ids=["missing", "not-an-object", "no-games_done", "string-version", "top-level-list", "removed-key",
        "no-version", "no-updates", "negative-games_done", "negative-version", "bool-games_done",
        "bool-updates", "float-version", "string-updates", "removed-advantage_mode", "removed-env-seed",
        "removed-ablation-flag"])
def test_a_state_file_without_a_config_is_refused(tmp_path, capsys, edit, message):
    assert main(["train", "--config", tiny_config(tmp_path)]) == 0
    state = tmp_path / "out" / "train_state.json"
    state.write_text(json.dumps(edit(json.loads(state.read_text()))))
    before = _run_files(tmp_path / "out")
    capsys.readouterr()
    assert main(["train", "--config", tiny_config(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert _run_files(tmp_path / "out") == before


# Trains with the config in argv[1] and dies, as a crash would, right after the
# state file that counts 6 games is written.
_DIE_AFTER_STATE_WRITE = r"""
import json, os, sys
from taaclab import learner
from taaclab.cli import main

write = learner.write_text_atomic

def write_then_die(path, text):
    write(path, text)
    if path.endswith("train_state.json") and json.loads(text)["games_done"] == 6:
        os._exit(9)

learner.write_text_atomic = write_then_die
main(["train", "--config", sys.argv[1]])
"""


@pytest.mark.parametrize("kind", ["random", "taac"])
def test_a_crash_right_after_a_state_write_loses_no_log_record(tmp_path, kind):
    run = {"env": {"steps_per_game": 24}, "learner": {"snapshot_interval": 3}, "policy": {"kind": kind},
           "seed": 5}

    def config(name, games):
        return tiny_config(tmp_path, **run, curriculum={"stage_games": [games, 0, 0, 0]},
                           out_dir=str(tmp_path / name))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "TAACLAB_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DIE_AFTER_STATE_WRITE, config("crashed", 9)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 9, proc.stderr
    crashed = tmp_path / "crashed"
    assert json.loads((crashed / "train_state.json").read_text())["updates"] == 6
    assert len((crashed / "training_log.jsonl").read_text().splitlines()) == 6
    assert main(["train", "--config", config("crashed", 9)]) == 0

    # Adam's moments are not saved, so a TAAC run resumed at game 6 updates as
    # one stopped cleanly there; a random team has no updates and equals a straight run
    if kind == "taac":
        assert main(["train", "--config", config("reference", 6)]) == 0
    assert main(["train", "--config", config("reference", 9)]) == 0
    log = (crashed / "training_log.jsonl").read_bytes()
    assert log == (tmp_path / "reference" / "training_log.jsonl").read_bytes()
    assert len(log.splitlines()) == 9


def test_a_log_shorter_than_the_state_is_refused(tmp_path, capsys):
    config = tiny_config(tmp_path, learner={"snapshot_interval": 1}, curriculum={"stage_games": [3, 0, 0, 0]})
    assert main(["train", "--config", config]) == 0
    log = tmp_path / "out" / "training_log.jsonl"
    log.write_text(log.read_text().splitlines(keepends=True)[0])
    before = _run_files(tmp_path / "out")
    capsys.readouterr()
    assert main(["train", "--config", config]) == 2
    assert ("train_state.json counts 3 updates but training_log.jsonl holds 1 of their records"
            in capsys.readouterr().err)
    assert _run_files(tmp_path / "out") == before


REMOVED_KNOBS = [("learner", "critic_target", "td"), ("learner", "advantage_mode", "coma"),
                 ("env", "seed", 0), ("policy", "actor_attention_off", False),
                 ("policy", "critic_V_fixed", True)]
REMOVED_KNOB_IDS = ["critic_target", "advantage_mode", "env-seed", "actor_attention_off", "critic_V_fixed"]


@pytest.mark.parametrize("section, key, value", REMOVED_KNOBS, ids=REMOVED_KNOB_IDS)
def test_a_run_that_stored_a_removed_knob_starts_over_with_fresh(tmp_path, section, key, value):
    assert main(["train", "--config", tiny_config(tmp_path)]) == 0
    state = tmp_path / "out" / "train_state.json"
    state.write_text(json.dumps(_with_removed_knob(json.loads(state.read_text()), section, key, value)))
    assert main(["train", "--fresh", "--config", tiny_config(tmp_path)]) == 0
    saved = json.loads(state.read_text())
    assert key not in saved["config"][section]
    assert saved["games_done"] == 1  # started over, not resumed
    with open(tmp_path / "out" / "training_log.jsonl") as fh:
        assert [json.loads(line)["games"] for line in fh] == [1]


@pytest.mark.parametrize("section, key, value", REMOVED_KNOBS, ids=REMOVED_KNOB_IDS)
def test_a_config_file_naming_a_removed_knob_exits_2_before_any_write(tmp_path, capsys, section, key,
                                                                      value):
    sections = {"learner": {"snapshot_interval": 5}, "env": {"steps_per_game": 40},
                "policy": {"kind": "taac_ablation"}}
    cfg_path = tiny_config(tmp_path, **{section: {**sections[section], key: value}})
    assert main(["train", "--config", cfg_path]) == 2
    assert f"validation failure: unknown key {section}.{key}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_train_zero_games_snapshot_equals_initialization(tmp_path):
    cfg_path = tiny_config(tmp_path, curriculum={"stage_games": [0, 0, 0, 0]})
    assert main(["train", "--config", cfg_path]) == 0
    from taaclab.baselines import build_policy
    from taaclab.config import parse_config as pc
    from taaclab.nets import load_snapshot

    cfg = pc(cfg_path)
    snap_dir = tmp_path / "out" / "snapshots"
    snap = load_snapshot(snap_dir / sorted(os.listdir(snap_dir))[-1])
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    reference = build_policy("taac", cfg.net, rng)
    for key, arr in reference.to_snapshot(0).params.items():
        np.testing.assert_array_equal(snap.params[key], arr)


def test_cli_gradcheck_small_run_exits_zero(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "worst max_rel_err" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("args", [["--eps", "nan"], ["--eps", "inf"], ["--eps", "0"], ["--eps=-1e-5"],
                                  ["--seeds", "0"], ["--seeds", "-3"]])
def test_cli_gradcheck_refuses_bad_arguments_with_exit_2(capsys, args):
    assert main(["gradcheck"] + args) == 2
    assert "validation failure" in capsys.readouterr().err


def test_gradient_suite_refuses_bad_arguments():
    from taaclab.checks import run_gradient_suite

    with pytest.raises(ValueError, match="n_seeds"):
        run_gradient_suite(n_seeds=0)
    for eps in (float("nan"), float("inf"), 0.0, -1e-5):
        with pytest.raises(ValueError, match="eps"):
            run_gradient_suite(n_seeds=1, eps=eps)


def test_cli_gradcheck_fails_on_a_nan_error(capsys, monkeypatch):
    from taaclab import checks

    results = [checks.GradCaseResult("fine", 0, 1e-7), checks.GradCaseResult("broken", 1, float("nan"))]
    monkeypatch.setattr(checks, "run_gradient_suite", lambda n_seeds, eps: results)
    assert main(["gradcheck"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  broken" in out and "worst max_rel_err=nan" in out


def test_each_command_echoes_its_config_only_into_its_own_output(tmp_path):
    from taaclab.baselines import RandomTeamPolicy
    from taaclab.env import EnvConfig
    from taaclab.evaluation import play_match, write_replay

    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path]) == 0
    train_echo = (out / "config_echo.json").read_bytes()
    assert json.loads(train_echo)["seed"] == 11
    listing = sorted(os.listdir(out))

    snap = str(out / "snapshots" / sorted(os.listdir(out / "snapshots"))[-1])
    assert main(["eval", "--a", snap, "--b", snap, "--games", "1", "--config", cfg_path,
                 "--seed", "99", "--out", str(tmp_path / "eval.json")]) == 0
    replay = tmp_path / "replay.jsonl"
    rec = play_match(RandomTeamPolicy(), RandomTeamPolicy(), EnvConfig(steps_per_game=3), seed=0)
    write_replay(rec.frames, replay)
    assert main(["replay", "--match", str(replay), "--out", str(tmp_path / "frames.csv"),
                 "--config", cfg_path]) == 0
    assert sorted(os.listdir(out)) == listing  # eval and replay write no echo
    assert main(["league", "--config", cfg_path, "--seed", "42"]) == 0
    assert (out / "config_echo.json").read_bytes() == train_echo
    with open(out / "league" / "config_echo.json") as fh:
        assert json.load(fh)["seed"] == 42


def test_cli_league_prints_one_row_per_team_sorted_by_elo(tmp_path, capsys):
    # a small pitch, so goals decide games and the ratings spread
    cfg_path = tiny_config(tmp_path, env={"pitch_length": 20.0, "pitch_width": 14.0, "goal_width": 10.0,
                                          "steps_per_game": 60},
                           league={"n_games": 8, "teams_per_kind": 2, "kinds": ["random", "taac"],
                                   "spawn_mode": "random_spawns"})
    assert main(["league", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(tmp_path / "out" / "league" / "league_report.json") as fh:
        report = json.load(fh)
    assert lines[0].split() == ["team", "elo", "pairdist", "conn", "swaps"]
    assert lines[-1] == f"report: {tmp_path / 'out' / 'league' / 'league_report.json'}"
    rows = [line.split() for line in lines[1:-1]]
    assert sorted(row[0] for row in rows) == sorted(report["teams"])
    assert [row[1] for row in rows] == [f"{report['elo_final'][row[0]]:.1f}" for row in rows]
    elos = [report["elo_final"][row[0]] for row in rows]
    assert elos == sorted(elos, reverse=True) and len(set(elos)) > 1
    for row in rows:
        collab = report["collaboration"][row[0]]
        assert row[2:] == [f"{collab['pairwise_distance']['mean']:.2f}",
                           f"{collab['connectivity']['mean']:.3f}",
                           f"{collab['possession_swaps']['mean']:.2f}"]


def test_cli_league_from_snapshot_directory(tmp_path):
    cfg_path = tiny_config(tmp_path, learner={"snapshot_interval": 1},
                           curriculum={"stage_games": [2, 0, 0, 0]})
    assert main(["train", "--config", cfg_path]) == 0
    snap_dir = str(tmp_path / "out" / "snapshots")
    assert main(["league", "--config", cfg_path, "--teams", snap_dir,
                 "--threads", "2"]) == 0
    report_path = tmp_path / "out" / "league" / "league_report.json"
    with open(report_path) as fh:
        report = json.load(fh)
    # one team per snapshot file, named after the file
    assert len(report["teams"]) == len(os.listdir(snap_dir))
    assert all(name.startswith("snapshot_v") for name in report["teams"])


def test_cli_league_rejects_a_text_format_snapshot(tmp_path, capsys):
    from taaclab.baselines import build_policy
    from taaclab.config import parse_config as pc

    cfg_path = tiny_config(tmp_path)
    cfg = pc(cfg_path)
    snap = build_policy("taac", cfg.net, np.random.default_rng(0)).to_snapshot(1)
    doc = snap.to_doc()
    for path, arr in snap.params.items():  # the decimal-list format of earlier versions
        doc["params"][path] = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
    teams = tmp_path / "teams"
    teams.mkdir()
    for name in ("snapshot_v00001.json", "snapshot_v00002.json"):  # a league needs two teams
        write_json(teams / name, doc)
    assert main(["league", "--config", cfg_path, "--teams", str(teams)]) == 2
    assert "text snapshots are no longer read" in capsys.readouterr().err


def test_a_bare_ablation_kind_trains_with_both_ablations(tmp_path):
    from taaclab.baselines import build_policy
    from taaclab.nets import load_snapshot

    cfg_path = tiny_config(tmp_path, policy={"kind": "taac_ablation"})
    assert main(["train", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    with open(out / "training_log.jsonl") as fh:
        assert [json.loads(line)["games"] for line in fh] == [1]  # one update ran
    snap = load_snapshot(out / "snapshots" / sorted(os.listdir(out / "snapshots"))[-1])
    assert snap.kind == "taac_ablation"
    assert snap.flags == {"actor_attention_off": True, "critic_V_fixed": True}
    initial = build_policy("taac_ablation", parse_config(cfg_path).net,
                           np.random.default_rng(np.random.SeedSequence([11, 0])))
    frozen = {id(t) for t in initial.critic.value_matrices()}
    critic = initial.critic.named_parameters()
    moved = [path for path, t in critic.items() if not np.array_equal(snap.params[path], t.data)]
    assert frozen and moved  # the update reached the critic, but not its value matrices
    assert not any(id(critic[path]) in frozen for path in moved)


def test_cli_league_refuses_a_repeated_kind_before_any_write(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path, league={"kinds": ["taac", "taac"], "n_games": 1})
    assert main(["league", "--config", cfg_path]) == 2
    assert "league: kinds must not repeat, got 'taac' more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_eval_refuses_a_random_snapshot_with_a_wrong_hash(tmp_path, capsys):
    from taaclab.baselines import RandomTeamPolicy

    doc = RandomTeamPolicy().to_snapshot(1).to_doc()
    good = write_json(tmp_path / "good.json", doc)
    assert main(["eval", "--a", good, "--b", good, "--games", "1", "--out",
                 str(tmp_path / "report.json")]) == 0
    bad = write_json(tmp_path / "bad.json", dict(doc, config_hash="0" * 64))
    assert main(["eval", "--a", bad, "--b", good, "--games", "1"]) == 2
    assert "architecture hash" in capsys.readouterr().err


def test_cli_eval_refuses_a_single_flag_ablation_snapshot(tmp_path, capsys):
    from taaclab.baselines import build_policy
    from taaclab.nets import TaacNetConfig, architecture_hash

    # earlier versions could write a taac_ablation snapshot with one ablation; its hash is its header's
    doc = build_policy("taac_ablation", TaacNetConfig(), np.random.default_rng(0)).to_snapshot(1).to_doc()
    flags = {"actor_attention_off": True, "critic_V_fixed": False}
    path = write_json(tmp_path / "single.json", dict(doc, flags=flags, config_hash=architecture_hash(
        "taac_ablation", flags, TaacNetConfig())))
    assert main(["eval", "--a", path, "--b", path, "--games", "1"]) == 2
    assert "architecture hash" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"params": {}}, "kind"),
    ([], "object"),
    ({"kind": "ppo", "flags": {}, "version": 1, "config_hash": "0", "params": []}, "params"),
    ({"kind": "ppo", "flags": [], "version": 1, "config_hash": "0", "params": {}}, "flags"),
], ids=["no_kind", "list_doc", "list_params", "list_flags"])
def test_cli_eval_rejects_a_bad_snapshot_header_with_exit_2(tmp_path, capsys, doc, field):
    path = write_json(tmp_path / "snapshot.json", doc)
    assert main(["eval", "--a", path, "--b", path, "--games", "1"]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    lambda frame: {"t": 0},
    lambda frame: [1, 2],
    lambda frame: dict(frame, players=frame["players"][:2]),
    lambda frame: dict(frame, players=frame["players"][3:] + frame["players"][:3]),
    lambda frame: dict(frame, players=[dict(frame["players"][0], pos=[1.0])] + frame["players"][1:]),
    lambda frame: dict(frame, scores=3),
    lambda frame: dict(frame, touches=5),
    lambda frame: dict(frame, touches=[[1]]),
], ids=["missing_keys", "list_frame", "two_players", "teams_out_of_order", "short_pos",
        "int_scores", "int_touches", "short_touch"])
def test_cli_replay_rejects_a_malformed_frame_with_exit_2(tmp_path, capsys, corrupt):
    from taaclab.baselines import RandomTeamPolicy
    from taaclab.env import EnvConfig
    from taaclab.evaluation import play_match

    frames = play_match(RandomTeamPolicy(), RandomTeamPolicy(), EnvConfig(steps_per_game=3), seed=0).frames
    frames[1] = corrupt(frames[1])
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
    assert main(["replay", "--match", str(path), "--out", str(tmp_path / "frames.csv")]) == 2
    err = capsys.readouterr().err
    assert "replay frame 1" in err and "Traceback" not in err


def test_cli_eval_rejects_missing_snapshot(tmp_path):
    code = main(["eval", "--a", str(tmp_path / "none.json"),
                 "--b", str(tmp_path / "none.json"), "--games", "1"])
    assert code == 2


def test_cli_numeric_failure_maps_to_exit_3(tmp_path, monkeypatch):
    from taaclab import learner

    def explode(cfg, resume=True):
        raise learner.NumericFailure("non-finite gradient in actor_update")

    monkeypatch.setattr(learner, "run_curriculum", explode)
    cfg_path = tiny_config(tmp_path)
    assert main(["train", "--config", cfg_path]) == 3


@pytest.mark.parametrize("writer", ["write_replay", "echo_config", "eval_out", "replay_csv"])
def test_a_failed_write_keeps_the_old_file_and_leaves_no_partial_file(tmp_path, monkeypatch, writer):
    from taaclab.baselines import RandomTeamPolicy
    from taaclab.env import EnvConfig
    from taaclab.evaluation import play_match, write_replay

    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    frames = play_match(RandomTeamPolicy(), RandomTeamPolicy(), EnvConfig(steps_per_game=3), seed=0).frames
    replay = inputs / "replay.jsonl"
    replay.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
    snap = write_json(inputs / "random.json", RandomTeamPolicy().to_snapshot(1).to_doc())
    target = out / ("config_echo.json" if writer == "echo_config" else "target")
    target.write_text("old\n")

    def write():
        if writer == "write_replay":
            write_replay(frames, str(target))
        elif writer == "echo_config":
            echo_config(RunConfig(out_dir=str(out)))
        else:
            args = (["eval", "--a", snap, "--b", snap, "--games", "1"] if writer == "eval_out"
                    else ["replay", "--match", str(replay)])
            if main(args + ["--out", str(target)]) != 0:
                raise OSError("the command exited non-zero")

    def refuse(src, dst):
        raise OSError("replace refused")

    # the new text is complete in the temporary file when the final move fails
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write()
    assert target.read_text() == "old\n"
    assert os.listdir(out) == [target.name]
    monkeypatch.undo()
    write()
    assert target.read_text() != "old\n"
    assert os.listdir(out) == [target.name]
