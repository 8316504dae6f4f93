"""perfbench's untraced probes see every game and every environment step.

The benchmark times steps by wrapping ``step``, ``reset`` and ``respawn`` as
globals of ``learner`` and ``evaluation``, and games by wrapping
``play_training_game`` and ``play_match``. A game loop that looks these
names up anywhere else runs unseen, and the benchmark's step timings read
nothing. This plays one tiny call of each workload with the probes
installed on the real modules and counts their events.

The same call is traced: ``instrument.Tracer`` wraps methods and functions
by name, so installing it fails if one of them was renamed or moved, and a
span that never opens shows that a traced method is no longer called.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from taaclab import autodiff, baselines, evaluation, learner, nets, nn

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instrument = _load("instrument")
workloads = _load("workloads")


def _log(out_dir) -> list[dict]:
    with open(out_dir / "training_log.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_probes_see_one_game_event_per_game_and_one_step_event_per_step(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, "tiny")
    probes, tracer = instrument.Probes(), instrument.Tracer()
    matches = []

    def keep_record(play_match):
        def wrapper(*args, **kwargs):
            matches.append(play_match(*args, **kwargs))
            return matches[-1]
        return wrapper

    with instrument.Patcher() as patcher:
        modules = {"learner": learner, "evaluation": evaluation, "nn": nn, "autodiff": autodiff,
                   "nets": nets, "baselines": baselines}
        probes.install(patcher, modules)
        tracer.install(patcher, modules)
        patcher.wrap(evaluation, "play_match", keep_record)
        with tracer.tracing(0):
            wl.call(str(tmp_path))

    kinds = np.asarray(probes.kinds)
    if name == "train_taac":
        steps = sum(rec["transitions"] for rec in _log(tmp_path))
    elif name == "selfplay_ppo":
        steps = sum(rec["batch_size"] for rec in _log(tmp_path)) // 3  # one sample per agent
    else:
        steps = sum(sum(rec.episode_lengths) for rec in matches)
    assert steps == wl.games * wl.sizes()["steps_per_game"]
    assert np.count_nonzero(kinds == instrument.GAME) == wl.games
    assert np.count_nonzero(kinds == instrument.STEP) == steps
    spans = {rec[instrument.NAME] for rec in tracer.spans}
    if name == "train_taac":  # the baseline's span wraps learner.counterfactual_baselines_batch by name
        assert {"nn.attention_forward", "nets.actor_forward", "nets.critic_forward",
                "nets.actor_probs_np", "nets.cf_baselines_batch", "learner.critic_update",
                "learner.actor_update"} <= spans
        assert {"baselines.act.taac", "baselines.act.inactive"} <= spans  # teams that do not pair act alone
    if name == "selfplay_ppo":  # ppo meets random: each team acts through its own act
        assert {"baselines.act.ppo", "baselines.act.random"} <= spans
    if name == "league_desk":  # the desk league's 3-argument build_policy plays the ablated team
        # the tiny schedule plays taac vs taac_ablation only, and the two teams pair: their
        # steps run in the stacked actor's probs_np, never in either team's act
        assert {"nets.actor_probs_np", "nn.attention_forward_np"} <= spans
        assert not {"baselines.act.taac", "baselines.act.taac_ablation"} & spans
        # the league's per-layer metrics wrap these module globals by name
        assert {"evaluation.run_league", "evaluation.play_match", "evaluation.connectivity",
                "evaluation.pairwise_distance"} <= spans
