"""Behaviour policies and logged-episode collection for OPE.

Off-policy evaluation requires the probability the *behaviour* policy
assigned to every logged action. Deterministic policies (greedy ACSO,
playbook) have degenerate importance ratios, so logging is done with
stochastic wrappers: :class:`StochasticQPolicy` (softmax and/or
epsilon-greedy over masked Q-values) or :class:`UniformRandomPolicy`.

Each logged step stores the featurized state and valid-action mask so
target-policy probabilities, FQE regressions, and doubly-robust
corrections can all be computed offline from the same log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dbn.filter import DBNTables
from repro.nn import no_grad
from repro.rl.dqn import valid_action_mask
from repro.rl.features import ACSOFeaturizer, FeatureSet, stack_features
from repro.utils.stats import discounted_return

__all__ = [
    "LoggedStep",
    "LoggedEpisode",
    "StochasticQPolicy",
    "UniformRandomPolicy",
    "decide_batch",
    "collect_logged_episodes",
]


@dataclass(frozen=True)
class LoggedStep:
    """One decision in a logged episode."""

    action: int
    behavior_prob: float
    reward: float
    features: FeatureSet | None = None
    mask: np.ndarray | None = None


@dataclass
class LoggedEpisode:
    """A trajectory logged under a known behaviour policy."""

    steps: list[LoggedStep]
    gamma: float
    #: features/mask of the state after the final step (for bootstraps)
    final_features: FeatureSet | None = None
    final_mask: np.ndarray | None = None
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([s.reward for s in self.steps])

    @property
    def behavior_probs(self) -> np.ndarray:
        return np.array([s.behavior_prob for s in self.steps])

    @property
    def actions(self) -> np.ndarray:
        return np.array([s.action for s in self.steps], dtype=np.int64)

    def discounted_return(self) -> float:
        return discounted_return(self.rewards, self.gamma)

    def final_state(self) -> tuple[FeatureSet, np.ndarray]:
        """Features and mask after the last step (the bootstrap state);
        the last step's own where the log holds no final snapshot."""
        features, mask = self.final_features, self.final_mask
        if features is None or mask is None:
            last = self.steps[-1]
            features = last.features if features is None else features
            mask = last.mask if mask is None else mask
        return features, mask


class StochasticQPolicy:
    """Stochastic policy over masked Q-values.

    With ``temperature`` set, base probabilities are a softmax of
    Q / temperature over valid actions; otherwise the base is the
    greedy one-hot. An ``epsilon`` mixture with the uniform-over-valid
    distribution guarantees full support, which ordinary importance
    sampling needs from the behaviour policy.
    """

    name = "stochastic-q"

    def __init__(self, qnet, tables: DBNTables,
                 temperature: float | None = None, epsilon: float = 0.1,
                 seed: int = 0):
        if temperature is not None and temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.qnet = qnet
        self.tables = tables
        self.temperature = temperature
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)
        self.featurizer: ACSOFeaturizer | None = None
        self._topology_key: tuple | None = None

    # ------------------------------------------------------------------
    def reset(self, env) -> None:
        topology = env.topology
        self.qnet.bind_topology(topology)
        if self.featurizer is None or self.featurizer.topology is not topology:
            self.featurizer = ACSOFeaturizer(topology, self.tables)
        self.featurizer.reset()
        self._topology_key = self.qnet.topology_key

    def action_probs(self, features: FeatureSet, mask: np.ndarray) -> np.ndarray:
        """Full action distribution at a (featurized) state.

        Works offline on logged features, which is how target-policy
        probabilities are recovered during estimation.
        """
        q = self.qnet.q_values(features)
        return self._probs_from_q(q, mask)

    def action_probs_batch(self, features_list, masks) -> list[np.ndarray]:
        """Distributions for many logged states in one network forward.

        The estimators' fast path (see
        :func:`repro.validation.ope.target_action_probs`): one stacked
        forward replaces a forward per step.
        """
        features_list = list(features_list)
        if not features_list:
            return []
        with no_grad():
            q = self.qnet.forward(*stack_features(features_list)).data
        return [self._probs_from_q(q[i], mask)
                for i, mask in enumerate(masks)]

    def _probs_from_q(self, q: np.ndarray, mask: np.ndarray) -> np.ndarray:
        valid = np.asarray(mask, dtype=bool)
        probs = np.zeros(len(q))
        if self.temperature is None:
            best = int(np.argmax(np.where(valid, q, -np.inf)))
            probs[best] = 1.0
        else:
            logits = np.where(valid, q / self.temperature, -np.inf)
            logits -= logits.max()
            exp = np.where(valid, np.exp(logits), 0.0)
            probs = exp / exp.sum()
        if self.epsilon > 0:
            uniform = valid / valid.sum()
            probs = (1.0 - self.epsilon) * probs + self.epsilon * uniform
        return probs

    def decide(self, obs, scored=None) -> tuple[int, float, FeatureSet, np.ndarray]:
        """Online decision: (action index, its probability, features, mask).

        ``scored`` is ``(features, q, mask)`` of this state when the
        caller (:func:`decide_batch`) has featurized and scored it
        already; otherwise this is the one-lane case of that function.
        """
        if scored is None:
            return decide_batch([self], [obs])[0]
        features, q, mask = scored
        probs = self._probs_from_q(q, mask)
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(probs[action]), features, mask


class UniformRandomPolicy(StochasticQPolicy):
    """Uniform over valid actions; the maximum-coverage behaviour."""

    name = "uniform-random"

    def __init__(self, qnet, tables: DBNTables, seed: int = 0):
        # the Q-network is only used for its action list / featurizer
        # plumbing, so logs stay compatible with Q-based targets; with
        # epsilon 1 the online draw is uniform over valid actions
        super().__init__(qnet, tables, epsilon=1.0, seed=seed)

    def action_probs(self, features: FeatureSet, mask: np.ndarray) -> np.ndarray:
        valid = np.asarray(mask, dtype=bool)
        return valid / valid.sum()

    def action_probs_batch(self, features_list, masks) -> list[np.ndarray]:
        return [self.action_probs(None, mask) for mask in masks]


def decide_batch(
    policies: Sequence[StochasticQPolicy], observations
) -> list[tuple[int, float, FeatureSet, np.ndarray]]:
    """:meth:`StochasticQPolicy.decide` for several lanes in one call.

    ``policies[i]`` (reset on its lane) observes ``observations[i]``.
    Lanes whose policies share a Q-network are scored in one stacked
    forward and masked in one call; each policy then draws from its own
    RNG, in lane order, so every decision equals a lone ``decide``.
    """
    features = [p.featurizer.update(obs) for p, obs in zip(policies, observations)]
    q_rows: list = [None] * len(policies)
    masks: list = [None] * len(policies)
    groups: dict[int, list[int]] = {}
    for i, policy in enumerate(policies):
        groups.setdefault(id(policy.qnet), []).append(i)
    for rows in groups.values():
        qnet = policies[rows[0]].qnet
        qnet.check_lanes(policies[i]._topology_key for i in rows)
        with no_grad():
            q = qnet.forward(*stack_features([features[i] for i in rows])).data
        mask = valid_action_mask(qnet.action_list, [observations[i] for i in rows])
        for j, i in enumerate(rows):
            q_rows[i], masks[i] = q[j], mask[j]
    return [
        policy.decide(obs, scored)
        for policy, obs, scored in zip(
            policies, observations, zip(features, q_rows, masks)
        )
    ]


def collect_logged_episodes(
    env,
    behavior,
    episodes: int,
    seed: int = 0,
    max_steps: int | None = None,
) -> list[LoggedEpisode]:
    """Run the behaviour policy and log (action, probability, reward).

    One environment action index is taken per step (the DQN decision
    model); the resulting log supports every estimator in this package.
    """
    gamma = env.config.reward.gamma
    horizon = env.config.tmax if max_steps is None else min(
        max_steps, env.config.tmax
    )
    logs: list[LoggedEpisode] = []
    for i in range(episodes):
        obs = env.reset(seed=seed + i)
        behavior.reset(env)
        steps: list[LoggedStep] = []
        done, t = False, 0
        while not done and t < horizon:
            action, prob, features, mask = behavior.decide(obs)
            obs, reward, done, info = env.step(action)
            t = info["t"]
            steps.append(LoggedStep(action, prob, reward, features, mask))
        final_action, _, final_features, final_mask = behavior.decide(obs)
        del final_action  # only the state snapshot is needed
        logs.append(
            LoggedEpisode(
                steps=steps,
                gamma=gamma,
                final_features=final_features,
                final_mask=final_mask,
                seed=seed + i,
            )
        )
    return logs
