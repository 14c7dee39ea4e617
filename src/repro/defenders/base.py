"""Defender policy interface.

A policy is reset with the environment (so it can capture the topology
and build per-node bookkeeping) and then maps each observation to a
list of :class:`DefenderAction` to launch this hour. Baseline policies
may launch several concurrent actions; the DQN-based ACSO launches at
most one, matching the argmax policy of Section 4.

Vectorised evaluation drives many lanes in lockstep through
:meth:`DefenderPolicy.reset_lane` and one :meth:`DefenderPolicy.act_batch`
call per round. The default keeps one copy of the policy per lane, so
every policy works there unchanged; a policy whose work batches across
lanes (ACSO's shared Q-network) overrides both.
"""

from __future__ import annotations

import abc
import copy
from typing import Sequence

from repro.sim.observations import Observation
from repro.sim.orchestrator import DefenderAction

__all__ = ["DefenderPolicy", "NoopPolicy"]


class DefenderPolicy(abc.ABC):
    name: str = "policy"

    def reset(self, env) -> None:
        """Called once per episode with the freshly reset environment."""

    @abc.abstractmethod
    def act(self, obs: Observation) -> list[DefenderAction]:
        """Return the actions to launch this step (may be empty)."""

    # -- lockstep lanes ------------------------------------------------
    def reset_lane(self, lane: int, env) -> None:
        """Begin an episode on lane ``lane`` of a lockstep batch.

        By default the lane gets its own copy of this policy, made on
        the lane's first episode, and :meth:`reset` is called on it.
        """
        copies = self.__dict__.setdefault("_lane_copies", {})
        policy = copies.get(lane)
        if policy is None:
            # the memo entry gives the copy an empty lane table of its own
            policy = copies[lane] = copy.deepcopy(self, {id(copies): {}})
        policy.reset(env)

    def act_batch(
        self, lanes: Sequence[int], observations: Sequence[Observation]
    ) -> list[list[DefenderAction]]:
        """Actions for several lanes in one call, ``lanes[i]`` observing
        ``observations[i]``; every lane was started with
        :meth:`reset_lane`. The default asks each lane's copy in turn."""
        copies = self._lane_copies
        return [copies[lane].act(obs) for lane, obs in zip(lanes, observations)]


class NoopPolicy(DefenderPolicy):
    """Takes no actions; the undefended upper bound on attack impact."""

    name = "noop"

    def act(self, obs: Observation) -> list[DefenderAction]:
        return []
