"""Wrappers the harness puts around the program's public functions.

Nothing here edits the package: each wrapper replaces a module or class
attribute for the duration of a ``Patcher`` context and the original is put
back on exit. A name is patched where it is looked up, so ``learner.step``
and ``evaluation.step`` are wrapped separately from ``env.step``.

Two kinds of wrapper exist:

- probes, always on: one timestamp per environment step, game, update
  boundary, MLP forward, backward pass and optimizer step;
- spans, only in traced calls: name, start, end, enclosing span and a unit
  of work (transitions, steps, samples) per call.

Every call of a run repeats the same work with the same seed, so the i-th
segment between two probe events, or the i-th span, of one call is the same
work as the i-th of any other. ``BestOf`` keeps the fastest repeat of each;
see METRICS.md for why.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Patcher:
    """Replaces attributes and restores every one of them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__}.{attr} is inherited; patch the defining class")
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class BestOf:
    """Element-wise minimum over repeats of one sequence of identical work."""

    def __init__(self):
        self.best: np.ndarray | None = None
        self.repeats = 0

    def add(self, values) -> bool:
        """Folds in one repeat; False if it does not line up with the first."""
        values = np.asarray(values, dtype=np.float64)
        if self.best is None:
            self.best = values.copy()
        elif values.shape != self.best.shape:
            return False
        else:
            np.minimum(self.best, values, out=self.best)
        self.repeats += 1
        return True


# ---------------------------------------------------------------------------
# probes


# probe event kinds
STEP, BREAK, GAME, UPDATE_BEGIN, UPDATE_END, FORWARD, BACKWARD, ADAM = range(8)
_STEP_BOUNDARIES = (STEP, BREAK, GAME, UPDATE_BEGIN, UPDATE_END)


class Probes:
    """A timeline of cheap events for the end-to-end metrics, cleared before every call.

    Each event appends one ``perf_counter`` value to ``times`` and its kind
    to ``kinds``: every environment step, reset or respawn (``BREAK``),
    game, update boundary, MLP forward, ``backward`` and ``Adam.step``.
    The gaps between events are the segments that ``BestOf`` compares
    across repeats; the MLP forwards, backward passes and optimizer steps
    only cut long updates into short segments.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kinds: list[int] = []

    def clear(self) -> None:
        # in place: the installed wrappers hold these lists
        self.times.clear()
        self.kinds.clear()

    def segments(self, call_start: float, call_end: float) -> np.ndarray:
        """Seconds between consecutive events, from the call's start to its end."""
        return np.diff([call_start, *self.times, call_end])

    def install(self, patcher: Patcher, modules: dict) -> None:
        times, kinds = self.times, self.kinds

        def before(kind):
            def wrap(fn):
                def wrapper(*args, **kwargs):
                    times.append(_clock())
                    kinds.append(kind)
                    return fn(*args, **kwargs)
                return wrapper
            return wrap

        def after(kind):
            def wrap(fn):
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    times.append(_clock())
                    kinds.append(kind)
                    return out
                return wrapper
            return wrap

        learner, evaluation, nn = modules["learner"], modules["evaluation"], modules["nn"]
        for module in (learner, evaluation):
            patcher.wrap(module, "step", before(STEP))
            patcher.wrap(module, "reset", before(BREAK))
            patcher.wrap(module, "respawn", before(BREAK))
        patcher.wrap(learner, "play_training_game", before(GAME))
        patcher.wrap(evaluation, "play_match", before(GAME))
        # TAAC: critic_update then actor_update; PPO: build_ppo_batch then ppo_update
        patcher.wrap(learner, "critic_update", before(UPDATE_BEGIN))
        patcher.wrap(learner, "actor_update", after(UPDATE_END))
        patcher.wrap(learner, "build_ppo_batch", before(UPDATE_BEGIN))
        patcher.wrap(learner, "ppo_update", after(UPDATE_END))
        patcher.wrap(nn.Mlp, "forward", before(FORWARD))
        patcher.wrap(nn.Mlp, "forward_np", before(FORWARD))
        patcher.wrap(modules["autodiff"], "backward", before(BACKWARD))
        patcher.wrap(learner.Adam, "step", before(ADAM))


def timeline_metrics(kinds: list[int], segments: np.ndarray) -> dict:
    """Total seconds, step intervals (us) and update durations (s) of one call.

    A step interval runs from one step's entry to the next; intervals with a
    reset, respawn, game start or update between them are left out. An
    update runs from the entry of its first function to the exit of its last.
    """
    kinds = np.asarray(kinds, dtype=np.int64)
    at = np.cumsum(segments)[:-1]  # time of each event from the call's start
    edges = np.flatnonzero(np.isin(kinds, _STEP_BOUNDARIES))
    pairs = (kinds[edges[:-1]] == STEP) & (kinds[edges[1:]] == STEP)
    steps_us = (at[edges[1:]] - at[edges[:-1]])[pairs] * 1e6
    begins = np.flatnonzero(kinds == UPDATE_BEGIN)
    ends = np.flatnonzero(kinds == UPDATE_END)
    return {"total_s": float(segments.sum()), "steps_us": steps_us,
            "updates_s": at[ends] - at[begins]}


# ---------------------------------------------------------------------------
# spans

# span record fields
NAME, START, END, PARENT, CALL, WORK = range(6)


def graph_size(root) -> int:
    """Tape nodes reachable from ``root`` through their parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory spans around calls into the program's modules.

    A span is ``[name, start, end, parent index, call id, work]``. Spans
    nest strictly because the harness is single-threaded, so a span's
    self time is its duration minus the durations of its direct children.
    ``active`` is false outside traced calls: wrappers then pass straight
    through. The first traced call's spans are kept whole; later calls
    only fold their durations into ``best_dur`` and ``best_self``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.first: list[list] | None = None
        self.backward_nodes: list[int] = []
        self.best_dur = BestOf()
        self.best_self = BestOf()
        self.call_id = 0
        self.active = False
        self._stack: list[int] = []

    def span(self, name, work=None):
        """Wrapper factory for ``Patcher.wrap``. ``name`` may be a function of
        the call's arguments; ``work(args, result)`` gives its unit count."""
        def wrap(fn):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                label = name(args) if callable(name) else name
                index = len(self.spans)
                record = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call_id, None]
                self.spans.append(record)
                self._stack.append(index)
                record[START] = _clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[END] = _clock()
                    self._stack.pop()
                if work is not None:
                    record[WORK] = work(args, out)
                return out
            return wrapper
        return wrap

    def install(self, patcher: Patcher, modules: dict) -> None:
        ad, nn, nets = modules["autodiff"], modules["nn"], modules["nets"]
        baselines, learner, evaluation = modules["baselines"], modules["learner"], modules["evaluation"]
        s = self.span

        def count_nodes(fn):
            # counted before the span opens so the walk is not charged to backward
            def wrapper(loss):
                if self.active and self.first is None:
                    self.backward_nodes.append(graph_size(loss))
                return fn(loss)
            return wrapper

        patcher.wrap(ad, "backward", s("autodiff.backward"))
        patcher.wrap(ad, "backward", count_nodes)

        patcher.wrap(nn.Mlp, "forward", s("nn.mlp_forward"))
        patcher.wrap(nn.Mlp, "forward_np", s("nn.mlp_forward_np"))
        patcher.wrap(nn.MultiHeadAttention, "forward", s("nn.attention_forward"))
        patcher.wrap(nn.MultiHeadAttention, "forward_np", s("nn.attention_forward_np"))

        patcher.wrap(nets.ActorNet, "forward", s("nets.actor_forward"))
        patcher.wrap(nets.ActorNet, "probs_np", s("nets.actor_probs_np"))
        patcher.wrap(nets.CriticNet, "forward", s("nets.critic_forward"))
        patcher.wrap(learner, "conformity_loss", s("nets.conformity_loss"))
        patcher.wrap(learner, "counterfactual_baselines_batch",
                     s("nets.cf_baselines_batch", lambda a, out: a[0].shape[0]))
        patcher.wrap(learner, "save_snapshot", s("nets.save_snapshot"))
        patcher.wrap(learner, "load_snapshot", s("nets.load_snapshot"))

        def act_name(args):
            return f"baselines.act.{args[0].kind}"

        for cls in (baselines.TaacTeamPolicy, baselines.PpoTeamPolicy,
                    baselines.RandomTeamPolicy, baselines.InactiveTeamPolicy):
            patcher.wrap(cls, "act", s(act_name))
        patcher.wrap(learner, "ppo_update",
                     s("baselines.ppo_update", lambda a, out: out["batch_size"]))
        patcher.wrap(learner, "gae_advantages", s("baselines.gae_advantages"))
        patcher.wrap(learner, "policy_from_snapshot", s("baselines.policy_from_snapshot"))

        for module in (learner, evaluation):
            patcher.wrap(module, "step", s("env.step"))
            patcher.wrap(module, "observe_team", s("env.observe_team"))
            patcher.wrap(module, "reset", s("env.reset"))
            patcher.wrap(module, "respawn", s("env.respawn"))

        patcher.wrap(evaluation, "connectivity_from_positions", s("evaluation.connectivity"))
        patcher.wrap(evaluation, "mean_pairwise_distance", s("evaluation.pairwise_distance"))
        patcher.wrap(evaluation, "play_match",
                     s("evaluation.play_match", lambda a, out: sum(out.episode_lengths)))
        patcher.wrap(evaluation, "run_league", s("evaluation.run_league"))

        patcher.wrap(learner.Adam, "step", s("learner.adam_step"))
        patcher.wrap(learner, "actor_update",
                     s("learner.actor_update", lambda a, out: out["transitions"]))
        patcher.wrap(learner, "critic_update",
                     s("learner.critic_update", lambda a, out: sum(len(t) for t in a[0])))
        patcher.wrap(learner, "play_training_game",
                     s("learner.play_training_game",
                       lambda a, out: sum(len(t) for t in out[0])))
        patcher.wrap(learner, "build_ppo_batch", s("learner.build_ppo_batch"))
        patcher.wrap(learner, "run_curriculum", s("learner.run_curriculum"))

    @contextmanager
    def tracing(self, call_id: int):
        self.spans = []
        self.call_id = call_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def end_call(self) -> bool:
        """Folds the finished call's spans in; False if they differ from the first call's."""
        spans, self.spans = self.spans, []
        dur = np.array([rec[END] - rec[START] for rec in spans])
        child = np.zeros(len(spans))
        parents = np.array([rec[PARENT] for rec in spans], dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        if self.first is None:
            self.first = spans
        elif [r[NAME] for r in spans] != [r[NAME] for r in self.first]:
            return False
        return self.best_dur.add(dur) and self.best_self.add(dur - child)


# ---------------------------------------------------------------------------
# per-layer summary

PHASE_SPANS = {
    "rollout": ("learner.play_training_game",),
    "critic": ("learner.critic_update",),
    "actor": ("learner.actor_update",),
    "ppo": ("learner.build_ppo_batch", "baselines.ppo_update"),
    "snapshot": ("nets.save_snapshot", "nets.load_snapshot", "baselines.policy_from_snapshot"),
}


def span_totals(tracer: Tracer) -> dict:
    """name -> [calls, seconds, self seconds, work] over one traced call, each span at its best."""
    totals: dict[str, list] = {}
    for rec, dur, self_time in zip(tracer.first, tracer.best_dur.best, tracer.best_self.best):
        row = totals.setdefault(rec[NAME], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += self_time
        row[3] += rec[WORK] or 0
    return totals


def layer_metrics(tracer: Tracer, games: int, metric_names, modules, extra: dict) -> dict:
    """Every per-layer metric in ``metric_names``; a layer that never ran reads 0.

    ``games`` is the number of games in one call. Counts and module self
    times are per game. Span suffixes: ``.us``/``.ms`` mean duration per
    call, ``.calls`` calls per game, ``.us_per_*`` total duration over total
    work, ``.self_ms`` self time per call. ``extra`` supplies values the
    spans cannot give.
    """
    totals = span_totals(tracer)
    out = dict(extra)
    for m in modules:
        rows = [row for name, row in totals.items() if name.startswith(m + ".")]
        out[f"{m}.calls"] = sum(r[0] for r in rows) / games
        out[f"{m}.self_ms"] = sum(r[2] for r in rows) / games * 1e3
    nodes = tracer.backward_nodes
    out["autodiff.backward.nodes"] = sum(nodes) / len(nodes) if nodes else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    # The curriculum's wall time is rebuilt from its best self time plus its
    # children's best durations: the best repeat of the whole one-second span
    # is slower than the sum of its parts' best repeats on a noisy host.
    parents = np.array([rec[PARENT] for rec in tracer.first], dtype=np.int64)
    child_best = np.zeros(len(parents))
    has_parent = parents >= 0
    np.add.at(child_best, parents[has_parent], tracer.best_dur.best[has_parent])
    wall = sum(tracer.best_self.best[i] + child_best[i]
               for i, rec in enumerate(tracer.first) if rec[NAME] == "learner.run_curriculum")
    covered = 0.0
    for phase, names in PHASE_SPANS.items():
        t = sum(totals.get(n, (0, 0.0))[1] for n in names)
        covered += t
        out[f"learner.share.{phase}"] = ratio(t, wall)
    out["learner.share.other"] = ratio(wall - covered, wall)

    for name in metric_names:
        if name in out:
            continue
        span, stat = name.rsplit(".", 1)
        calls, total, self_total, work = totals.get(span, (0, 0.0, 0.0, 0))
        if stat == "us":
            out[name] = ratio(total, calls) * 1e6
        elif stat == "ms":
            out[name] = ratio(total, calls) * 1e3
        elif stat == "self_ms":
            out[name] = ratio(self_total, calls) * 1e3
        elif stat == "calls":
            out[name] = calls / games
        elif stat.startswith("us_per_"):
            out[name] = ratio(total, work) * 1e6
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return {name: float(out[name]) for name in metric_names}
