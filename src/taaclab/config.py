"""Run configuration: nested dataclass sections parsed from strict JSON.

Every field has a default; unknown keys are rejected with their full key
path; ``echo_config`` writes the effective config beside a command's output
so a run can be reproduced from its artifacts alone. The TAACLAB_OUT_DIR
environment variable overrides the configured output directory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .baselines import POLICY_KINDS
from .env import N_ACTIONS, OBS_WIDTH, SPAWN_MODES, EnvConfig
from .nets import TaacNetConfig, write_text_atomic

OUT_DIR_ENV = "TAACLAB_OUT_DIR"


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key path."""


@dataclass(frozen=True)
class LearnerSettings:
    gamma: float = 0.99
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    grad_clip: float = 5.0
    entropy_coef: float = 0.01
    conformity_scale: float = 0.05   # 0 switches the penalty off
    conformity_floor: float = 0.3
    games_per_update: int = 1
    snapshot_interval: int = 500

    def validate(self) -> "LearnerSettings":
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("actor_lr", "critic_lr", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("entropy_coef", "conformity_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not -1.0 <= self.conformity_floor <= 1.0:
            raise ValueError(f"conformity_floor must lie in [-1, 1], got {self.conformity_floor}")
        for name in ("games_per_update", "snapshot_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        return self


@dataclass(frozen=True)
class CurriculumSettings:
    stage_games: tuple = (200, 200, 200, 200)

    def validate(self) -> "CurriculumSettings":
        if len(self.stage_games) != 4:
            raise ValueError(f"stage_games needs exactly 4 entries, got {len(self.stage_games)}")
        if any(int(g) < 0 for g in self.stage_games):
            raise ValueError(f"stage_games must be nonnegative, got {self.stage_games}")
        return self


@dataclass(frozen=True)
class PolicySettings:
    kind: str = "taac"
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    gae_lambda: float = 0.95

    def validate(self) -> "PolicySettings":
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if not 0.0 < self.ppo_clip < 1.0:
            raise ValueError(f"ppo_clip must lie in (0, 1), got {self.ppo_clip}")
        if self.ppo_epochs < 1:
            raise ValueError(f"ppo_epochs must be >= 1, got {self.ppo_epochs}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must lie in [0, 1], got {self.gae_lambda}")
        return self


@dataclass(frozen=True)
class LeagueSettings:
    n_games: int = 400
    teams_per_kind: int = 2
    kinds: tuple = ("taac", "taac_ablation", "ppo", "random")
    elo_k: float = 32.0
    elo_initial: float = 1200.0
    conn_d_min: float = 5.0
    conn_d_max: float = 40.0
    spawn_mode: str = "fixed_formation"
    save_replays: bool = False
    threads: int = 1

    def validate(self) -> "LeagueSettings":
        if self.n_games < 1:
            raise ValueError(f"n_games must be >= 1, got {self.n_games}")
        if self.teams_per_kind < 1:
            raise ValueError(f"teams_per_kind must be >= 1, got {self.teams_per_kind}")
        if not self.kinds or any(k not in POLICY_KINDS for k in self.kinds):
            raise ValueError(f"kinds must be drawn from {POLICY_KINDS}, got {self.kinds}")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError(f"kinds must not repeat, got {max(self.kinds, key=self.kinds.count)!r} more than once")
        if self.teams_per_kind * len(self.kinds) < 2:
            raise ValueError("league needs at least 2 teams")
        if self.elo_k <= 0:
            raise ValueError(f"elo_k must be positive, got {self.elo_k}")
        if not 0.0 < self.conn_d_min < self.conn_d_max:
            raise ValueError(f"need 0 < conn_d_min < conn_d_max, got {self.conn_d_min}, {self.conn_d_max}")
        if self.spawn_mode not in SPAWN_MODES:
            raise ValueError(f"spawn_mode must be one of {SPAWN_MODES}, got {self.spawn_mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        return self


@dataclass(frozen=True)
class RunConfig:
    env: EnvConfig = EnvConfig()
    net: TaacNetConfig = TaacNetConfig()
    learner: LearnerSettings = LearnerSettings()
    curriculum: CurriculumSettings = CurriculumSettings()
    policy: PolicySettings = PolicySettings()
    league: LeagueSettings = LeagueSettings()
    seed: int = 0
    out_dir: str = "runs/latest"

    def validate(self) -> "RunConfig":
        for section in ("env", "net", "learner", "curriculum", "policy", "league"):
            try:
                getattr(self, section).validate()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        for key, width in (("obs_width", OBS_WIDTH), ("n_actions", N_ACTIONS)):
            if getattr(self.net, key) != width:
                raise ConfigError(f"net.{key} must be {width} to fit the environment, "
                                  f"got {getattr(self.net, key)}")
        if not self.out_dir:
            raise ConfigError("out_dir must be a nonempty path")
        return self


_SECTION_TYPES = {
    "env": EnvConfig,
    "net": TaacNetConfig,
    "learner": LearnerSettings,
    "curriculum": CurriculumSettings,
    "policy": PolicySettings,
    "league": LeagueSettings,
}


def _coerce(value, default, path: str):
    """Coerce a JSON value to the type of the field default."""
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity and 1e400
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        elem = default[0] if default else ""
        return tuple(_coerce(v, elem, f"{path}[{k}]") for k, v in enumerate(value))
    raise ConfigError(f"{path}: unsupported config value {value!r}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")
    defaults = cls()
    kwargs = {}
    for name, value in data.items():
        kwargs[name] = _coerce(value, getattr(defaults, name), f"{path}.{name}")
    return dataclasses.replace(defaults, **kwargs)


def build_config(data: dict) -> RunConfig:
    """Assemble a RunConfig from a parsed JSON object, applying defaults."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    known = set(_SECTION_TYPES) | {"seed", "out_dir"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]}")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in data:
            kwargs[name] = _build_section(cls, data[name], name)
    for name, default in (("seed", 0), ("out_dir", "")):
        if name in data:
            kwargs[name] = _coerce(data[name], default, name)
    cfg = RunConfig(**kwargs)
    if OUT_DIR_ENV in os.environ:
        cfg = dataclasses.replace(cfg, out_dir=os.environ[OUT_DIR_ENV])
    return cfg.validate()


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for name in _SECTION_TYPES:
        section = getattr(cfg, name)
        values = {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}
        out[name] = {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}
    out["seed"] = cfg.seed
    out["out_dir"] = cfg.out_dir
    return out


def echo_config(cfg: RunConfig, directory: str | None = None) -> str:
    """Write the full effective config into ``directory`` (default: the output
    directory); returns the path."""
    directory = cfg.out_dir if directory is None else directory
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "config_echo.json")
    write_text_atomic(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return path


def parse_config(path: str | None, override_seed: int | None = None) -> RunConfig:
    """Load and validate a JSON run configuration; no path means the defaults."""
    if path is None:
        data = {}
    elif not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    else:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = build_config(data)
    if override_seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(override_seed))
    return cfg
