"""The learned ACSO defender: attention Q-network over DBN beliefs.

At evaluation time the policy is the greedy argmax over valid actions
(Section 4): at most one investigation or mitigation per hour, with
"no action" an explicit choice. Because the Q-network's parameters are
independent of network size, the same weights can be bound to any
topology.

Every lane of a lockstep batch shares the one Q-network and DBN table
set and keeps only its own featurizer, so a round is a per-lane DBN
update, one stacked graph-free forward, one vectorised mask and a
row-wise argmax. :meth:`ACSOPolicy.act` is the one-lane case of
:meth:`ACSOPolicy.act_batch`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dbn.filter import DBNTables
from repro.defenders.base import DefenderPolicy
from repro.nn import load_state, no_grad
from repro.rl.dqn import valid_action_mask
from repro.rl.features import ACSOFeaturizer, stack_features
from repro.rl.qnetwork import AttentionQNetwork, QNetConfig
from repro.sim.observations import Observation
from repro.sim.orchestrator import DefenderAction

__all__ = ["ACSOPolicy"]


class ACSOPolicy(DefenderPolicy):
    name = "acso"

    def __init__(self, qnet: AttentionQNetwork, tables: DBNTables):
        self.qnet = qnet
        self.tables = tables
        #: lane -> its featurizer and the Q-net topology key at reset
        self._featurizers: dict[int, ACSOFeaturizer] = {}
        self._lane_keys: dict[int, tuple] = {}

    @classmethod
    def from_file(cls, path, tables: DBNTables,
                  config: QNetConfig | None = None, seed: int = 0) -> "ACSOPolicy":
        """Load trained weights saved with :func:`repro.nn.save_state`."""
        qnet = AttentionQNetwork(config, seed=seed)
        load_state(qnet, path)
        return cls(qnet, tables)

    @property
    def featurizer(self) -> ACSOFeaturizer | None:
        """The single-env (lane 0) featurizer, once :meth:`reset` ran."""
        return self._featurizers.get(0)

    def reset(self, env) -> None:
        self.reset_lane(0, env)

    def reset_lane(self, lane: int, env) -> None:
        topology = env.topology
        self.qnet.bind_topology(topology)
        featurizer = self._featurizers.get(lane)
        if featurizer is None or featurizer.topology is not topology:
            featurizer = self._featurizers[lane] = ACSOFeaturizer(
                topology, self.tables
            )
        featurizer.reset()
        self._lane_keys[lane] = self.qnet.topology_key

    def act(self, obs: Observation) -> list[DefenderAction]:
        return self.act_batch((0,), (obs,))[0]

    def act_batch(
        self, lanes: Sequence[int], observations: Sequence[Observation]
    ) -> list[list[DefenderAction]]:
        qnet = self.qnet
        qnet.check_lanes(self._lane_keys[lane] for lane in lanes)
        features = [
            self._featurizers[lane].update(obs)
            for lane, obs in zip(lanes, observations)
        ]
        with no_grad():
            q = qnet.forward(*stack_features(features)).data
        mask = valid_action_mask(qnet.action_list, observations)
        best = np.where(mask, q, -np.inf).argmax(axis=1)
        chosen = [qnet.action_list[i] for i in best.tolist()]
        return [[] if action.is_noop else [action] for action in chosen]
