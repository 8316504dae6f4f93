"""Command-line entry points.

Subcommands: ``train`` (curriculum training run), ``league`` (round of
random pairings with Elo + collaboration reporting), ``eval`` (head-to-head
between two snapshots), ``gradcheck`` (finite-difference gradient suite),
``replay`` (per-frame metrics CSV from a replay file).

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numeric
failure (NaN abort).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

GRAD_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="taaclab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="run the 4-stage curriculum trainer")
    p_train.add_argument("--config", required=True, help="JSON run configuration")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--fresh", action="store_true", help="ignore existing snapshots instead of resuming")

    p_league = sub.add_parser("league", help="run a league of random pairings")
    p_league.add_argument("--config", default=None)
    p_league.add_argument("--teams", default=None, help="directory of snapshot files; fresh teams when omitted")
    p_league.add_argument("--seed", type=int, default=None)
    p_league.add_argument("--threads", type=int, default=None, help="cap match worker parallelism")

    p_eval = sub.add_parser("eval", help="head-to-head between two snapshots")
    p_eval.add_argument("--a", required=True, help="snapshot file for side a")
    p_eval.add_argument("--b", required=True, help="snapshot file for side b")
    p_eval.add_argument("--games", type=int, required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--seeds", type=int, default=10)
    p_grad.add_argument("--eps", type=float, default=1e-5)

    p_replay = sub.add_parser("replay", help="export per-frame metrics from a replay")
    p_replay.add_argument("--match", required=True, help="replay JSONL file")
    p_replay.add_argument("--out", required=True, help="output CSV path")
    p_replay.add_argument("--config", default=None)

    return parser


def _cmd_train(args) -> int:
    from .config import parse_config
    from .learner import run_curriculum

    cfg = parse_config(args.config, args.seed)
    result = run_curriculum(cfg, resume=not args.fresh)
    print(f"trained {result.games_done} games; final snapshot version {result.final_version}")
    print(f"log: {result.log_path}")
    return EXIT_OK


def _default_league_teams(cfg):
    from .baselines import build_policy

    teams = []
    idx = 0
    for kind in cfg.league.kinds:
        for copy in range(cfg.league.teams_per_kind):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4, idx]))
            teams.append((f"{kind}-{copy}", build_policy(kind, cfg.net, rng)))
            idx += 1
    return teams


def _teams_from_dir(path, cfg):
    from .baselines import policy_from_snapshot
    from .nets import load_snapshot

    files = sorted(f for f in os.listdir(path) if f.endswith(".json"))
    if not files:
        raise ValueError(f"no snapshot files in {path}")
    teams = []
    for name in files:
        snap = load_snapshot(os.path.join(path, name))
        teams.append((os.path.splitext(name)[0], policy_from_snapshot(snap, cfg.net)))
    return teams


def _cmd_league(args) -> int:
    from .config import echo_config, parse_config
    from .evaluation import run_league

    cfg = parse_config(args.config, args.seed)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, league=dataclasses.replace(cfg.league, threads=args.threads))
    cfg.validate()
    teams = _teams_from_dir(args.teams, cfg) if args.teams else _default_league_teams(cfg)
    out_dir = os.path.join(cfg.out_dir, "league")
    echo_config(cfg, out_dir)
    report = run_league(teams, cfg.env, cfg.league, cfg.seed, out_dir)
    print(f"{'team':<18} {'elo':>8} {'pairdist':>9} {'conn':>6} {'swaps':>6}")
    for name in sorted(report["teams"], key=lambda n: -report["elo_final"][n]):
        means = [report["collaboration"][name][metric]["mean"]
                 for metric in ("pairwise_distance", "connectivity", "possession_swaps")]
        cells = ["-" if m is None else format(m, fmt) for m, fmt in zip(means, (".2f", ".3f", ".2f"))]
        print(f"{name:<18} {report['elo_final'][name]:>8.1f} {cells[0]:>9} {cells[1]:>6} {cells[2]:>6}")
    print(f"report: {os.path.join(out_dir, 'league_report.json')}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .baselines import policy_from_snapshot
    from .config import parse_config
    from .evaluation import head_to_head
    from .nets import load_snapshot, write_text_atomic

    cfg = parse_config(args.config, args.seed)
    policy_a = policy_from_snapshot(load_snapshot(args.a), cfg.net)
    policy_b = policy_from_snapshot(load_snapshot(args.b), cfg.net)
    report = head_to_head(policy_a, policy_b, cfg.env, args.games, cfg.seed,
                          spawn_mode=cfg.league.spawn_mode)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from .checks import run_gradient_suite

    results = run_gradient_suite(n_seeds=args.seeds, eps=args.eps)
    passed = [r.error < GRAD_TOLERANCE for r in results]  # a NaN error fails
    for r, ok in zip(results, passed):
        print(f"{'ok' if ok else 'FAIL'}  {r.name:<16} seed={r.seed:<9} max_rel_err={r.error:.3e}")
    worst = np.max([r.error for r in results])  # unlike max(), keeps a NaN
    print(f"worst max_rel_err={worst:.3e} (tolerance {GRAD_TOLERANCE:.0e})")
    return EXIT_OK if all(passed) else EXIT_VALIDATION


def _cmd_replay(args) -> int:
    from .config import parse_config
    from .env import N_PLAYERS, team_of
    from .evaluation import match_metrics, read_replay
    from .nets import write_text_atomic

    cfg = parse_config(args.config)
    frames = read_replay(args.match)
    if not frames:
        raise ValueError(f"replay {args.match} holds no frames")
    player_teams = [team_of(i) for i in range(N_PLAYERS)]
    positions = np.empty((len(frames), N_PLAYERS, 2))
    touches, rows = [], []
    for k, frame in enumerate(frames):
        players = frame.get("players") if isinstance(frame, dict) else None
        if (not isinstance(players, list) or not {"t", "episode", "scores"} <= frame.keys()
                or [p.get("team") if isinstance(p, dict) else None for p in players] != player_teams):
            raise ValueError(f"replay frame {k}: need t, episode, scores and players of teams {player_teams}")
        try:
            positions[k] = [p["pos"] for p in players]
            score_0, score_1 = frame["scores"]
            touches.append([(int(p), int(team)) for p, team in frame.get("touches", [])])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"replay frame {k}: need a pos of 2 numbers per player, "
                             "2 scores and (player, team) touches") from None
        rows.append({
            "t": frame["t"],
            "episode": frame["episode"],
            "score_0": score_0,
            "score_1": score_1,
            "goal": "" if frame.get("goal") is None else frame["goal"],
            "episode_done": int(bool(frame.get("episode_done"))),
        })
    per_step = match_metrics(positions, touches, [frame.get("episode_done") for frame in frames],
                             cfg.env.player_radius, cfg.league.conn_d_min, cfg.league.conn_d_max)
    for k, row in enumerate(rows):
        for team in range(2):
            row[f"pairdist_{team}"] = f"{per_step['pairwise_distance'][team, k]:.6f}"
            row[f"conn_{team}"] = f"{per_step['connectivity'][team, k]:.6f}"
            row[f"swaps_{team}"] = int(per_step["possession_swaps"][team, k])
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    write_text_atomic(args.out, table.getvalue())
    print(f"wrote {len(rows)} frames to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "league": _cmd_league,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "replay": _cmd_replay,
}


def cli_dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("missing subcommand")
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    from .config import ConfigError
    from .learner import NumericFailure

    try:
        return cli_dispatch(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
