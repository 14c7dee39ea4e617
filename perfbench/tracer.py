"""Outside-in layer tracer for the benchmark's traced run.

The tracer never edits the library. It replaces public functions and
methods of ``repro`` with timing wrappers for the duration of a traced
phase and puts every original back afterwards. Each wrapper records a
span on one stack, so a layer's *self* time is its wall time minus the
time of the wrapped layers it called. A layer that re-enters itself
(``q_values`` calling ``forward``, ``evaluate_policy_vec`` calling
``drive_vec_episodes``) is one span, counted once.

Counters that are not spans sit at the same boundaries: the lanes a
``venv.step`` advances, the lanes whose action is ``None`` or empty,
the ``Simulation.step_attacker`` calls made inside ``venv.step`` (one
per lane that left the batched idle fast path), and the rows each
Q-network call scored.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "SPAN_LAYERS"]

#: every span layer the tracer installs, in report order
SPAN_LAYERS = (
    "eval.runner",
    "defenders.act",
    "defenders.reset",
    "rl.features.update",
    "rl.qnetwork.forward",
    "rl.dqn.valid_action_mask",
    "sim.step",
    "sim.reset",
    "validation.logging.decide",
    "validation.logging.reset",
    "validation.tracestore.append",
    "validation.datasets.decode",
    "validation.ope.is_stats",
    "validation.fqe.fit",
    "validation.fqe.dr",
    "validation.confidence.bootstrap",
    "validation.suite",
    "nn.backward",
    "nn.optim.step",
)


class Tracer:
    """Span stack plus counters; :meth:`install` / :meth:`restore`."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [layer, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._in_step = 0

    # -- spans ---------------------------------------------------------
    def _timed(self, layer: str, fn, before=None):
        stack = self._stack
        clock = time.perf_counter
        totals = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _timed_iter(self, layer: str, fn):
        """Wrap a generator function: time each ``next()`` as one span,
        so the consumer's work between items is not charged to it."""
        stack = self._stack
        clock = time.perf_counter
        totals = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    totals[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                calls[layer] += 1
                yield item

        return wrapper

    def inner_s(self) -> float:
        """Self seconds of the wrapped layers that have finished inside
        the current outermost span so far."""
        return self._stack[0][1] if self._stack else 0.0

    # -- patching ------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_method(self, cls, name: str, wrap) -> None:
        self._set(cls, name, wrap(cls.__dict__[name]))

    def _patch_function(self, fn, wrap) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it
        (``from x import f`` copies the reference into the importer)."""
        wrapped = wrap(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self) -> None:
        """Wrap the public boundaries of every traced layer."""
        from repro.defenders.base import DefenderPolicy
        from repro.eval import runner
        from repro.nn.optim import SGD, Adam
        from repro.nn.tensor import Tensor
        from repro.rl import dqn
        from repro.rl.features import ACSOFeaturizer
        from repro.rl.qnetwork import AttentionQNetwork
        from repro.sim.batched_engine import BatchedVectorEnv
        from repro.sim.engine import Simulation
        from repro.validation import confidence, fqe, ope, suite, tracestore
        from repro.validation.datasets import TraceDataset
        from repro.validation.logging import StochasticQPolicy

        if self._patched:
            raise RuntimeError("tracer is already installed")

        def timed(layer, before=None):
            return lambda fn: self._timed(layer, fn, before)

        for fn in (
            runner.evaluate_policy_vec,
            runner.drive_vec_episodes,
            tracestore.record_episodes_vec,
        ):
            self._patch_function(fn, timed("eval.runner"))

        for cls in _subclasses(DefenderPolicy):
            for name in ("act", "reset"):
                if name in cls.__dict__:
                    self._patch_method(cls, name, timed(f"defenders.{name}"))

        self._patch_method(ACSOFeaturizer, "update", timed("rl.features.update"))
        for name in ("q_values", "forward"):
            self._patch_method(
                AttentionQNetwork,
                name,
                timed("rl.qnetwork.forward", before=self._count_rows),
            )
        self._patch_function(dqn.valid_action_mask, timed("rl.dqn.valid_action_mask"))

        self._patch_method(BatchedVectorEnv, "step", self._wrap_step)
        self._patch_method(BatchedVectorEnv, "reset_env", timed("sim.reset"))
        self._patch_method(Simulation, "step_attacker", self._wrap_attacker)

        self._patch_method(
            StochasticQPolicy, "decide", timed("validation.logging.decide")
        )
        self._patch_method(
            StochasticQPolicy, "reset", timed("validation.logging.reset")
        )
        for name in ("append_step", "finish_episode", "close"):
            self._patch_method(
                tracestore.TraceWriter, name, timed("validation.tracestore.append")
            )
        self._patch_method(
            TraceDataset,
            "iter_episodes",
            lambda fn: self._timed_iter("validation.datasets.decode", fn),
        )
        self._patch_function(ope.episode_ope_stats, timed("validation.ope.is_stats"))
        self._patch_function(fqe.fitted_q_evaluation, timed("validation.fqe.fit"))
        self._patch_function(fqe.episode_dr_value, timed("validation.fqe.dr"))
        for fn in (confidence.bootstrap_ci, confidence.bootstrap_ratio_ci):
            self._patch_function(fn, timed("validation.confidence.bootstrap"))
        self._patch_function(suite.run_ope_suite, timed("validation.suite"))

        self._patch_method(Tensor, "backward", timed("nn.backward"))
        for cls in (SGD, Adam):
            self._patch_method(cls, "step", timed("nn.optim.step"))

    def restore(self) -> None:
        """Put every original back and verify that it is back."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
            if getattr(owner, name) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{name}")

    # -- counters ------------------------------------------------------
    def _count_rows(self, qnet, first, *args, **kwargs) -> None:
        # q_values(features) scores one state; forward(node, plc, glob)
        # scores node.shape[0] states
        shape = getattr(first, "shape", None)
        self.counts["rl.qnetwork.rows"] += 1 if shape is None else shape[0]

    def _wrap_step(self, step):
        timed = self._timed("sim.step", step, before=self._count_lanes)

        @functools.wraps(step)
        def wrapper(*args, **kwargs):
            self._in_step += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._in_step -= 1

        return wrapper

    def _count_lanes(self, venv, actions=None, mask=None) -> None:
        n = venv.num_envs
        active = range(n) if mask is None else [i for i in range(n) if mask[i]]
        self.counts["sim.lane_steps"] += len(active)
        if actions is None:
            self.counts["sim.empty_actions"] += len(active)
            return
        for i in active:
            action = actions[i]
            if action is None or (isinstance(action, (list, tuple)) and not action):
                self.counts["sim.empty_actions"] += 1

    def _wrap_attacker(self, step_attacker):
        counts = self.counts

        @functools.wraps(step_attacker)
        def wrapper(*args, **kwargs):
            if self._in_step:
                counts["sim.engine.oracle_lane_steps"] += 1
            return step_attacker(*args, **kwargs)

        return wrapper


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
