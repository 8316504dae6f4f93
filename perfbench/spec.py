"""What the benchmark measures: workloads, metric names, units and bounds.

This is the one place the metric set is declared. ``run.py --write-spec``
renders it as BENCHMARK.json, and the harness reports exactly these names.
"""

from __future__ import annotations

import json

RUN_SECONDS = 30

WORKLOADS = {
    "train_taac": "stage-1 TAAC training vs the inactive team: per-transition tape in critic/actor updates dominates, league metrics never run",
    "league_desk": "default 8-team desk league: env steps, tape-free forwards and per-step match metrics only; backward never runs",
    "selfplay_ppo": "PPO snapshot self-play, stages 3-4 with a resume between them: large batched tape ops and the snapshot codec",
}

# (name, unit, bound): bound is the share of the parent's median by which
# the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("games_per_s", "games/s", 0.25),
    ("step_us_p50", "us", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
]
HIGHER_IS_BETTER = {"games_per_s"}

MODULES = ("autodiff", "nn", "nets", "baselines", "env", "evaluation", "learner")
ACT_KINDS = ("taac", "taac_ablation", "ppo", "random", "inactive")
PHASES = ("rollout", "critic", "actor", "ppo", "snapshot", "other")

# Per-function metrics: (metric name, unit). Every count is per game played,
# so it does not depend on how many games fit in one run.
FUNCTION_METRICS = [
    ("autodiff.backward.us", "us"),
    ("autodiff.backward.calls", "count/game"),
    ("autodiff.backward.nodes", "count"),
    ("learner.actor_update.us_per_transition", "us"),
    ("learner.critic_update.us_per_transition", "us"),
    ("learner.adam_step.us", "us"),
    ("learner.update.s_p50", "s"),
    ("learner.play_training_game.us_per_step", "us"),
    ("learner.build_ppo_batch.us", "us"),
    ("nets.actor_forward.us", "us"),
    ("nets.critic_forward.us", "us"),
    ("nets.conformity_loss.us", "us"),
    ("nets.cf_baselines_batch.us_per_transition", "us"),
    ("nets.actor_probs_np.us", "us"),
    ("nets.save_snapshot.ms", "ms"),
    ("nets.load_snapshot.ms", "ms"),
    ("nn.mlp_forward.us", "us"),
    ("nn.mlp_forward_np.us", "us"),
    ("nn.attention_forward.us", "us"),
    ("nn.attention_forward_np.us", "us"),
    *[(f"baselines.act.{kind}.us", "us") for kind in ACT_KINDS],
    ("baselines.ppo_update.us_per_sample", "us"),
    ("baselines.gae_advantages.us", "us"),
    ("baselines.policy_from_snapshot.ms", "ms"),
    ("env.step.us", "us"),
    ("env.observe_team.us", "us"),
    ("env.reset.calls", "count/game"),
    ("env.respawn.calls", "count/game"),
    ("evaluation.connectivity.us", "us"),
    ("evaluation.pairwise_distance.us", "us"),
    ("evaluation.play_match.us_per_step", "us"),
    ("evaluation.run_league.self_ms", "ms"),
]

PER_LAYER = (
    [(f"{m}.calls", "count/game") for m in MODULES]
    + [(f"{m}.self_ms", "ms/game") for m in MODULES]
    + FUNCTION_METRICS
    + [(f"learner.share.{p}", "share") for p in PHASES]
    + [("trace.overhead", "share")]
)


def benchmark_doc() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u,
             "better": "higher" if n in HIGHER_IS_BETTER else "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


def benchmark_json() -> str:
    return json.dumps(benchmark_doc(), indent=2) + "\n"
