"""Episode runner used by all experiments.

:func:`run_episode` / :func:`evaluate_policy` drive one environment at
a time; :func:`evaluate_policy_vec` fans the same seeded episodes out
over a :class:`~repro.sim.vec_env.VectorEnv` and produces identical
metrics for deterministic policies (episode ``i`` always runs with
seed ``seed + i`` against a freshly reset policy).
:func:`evaluate_policy_per_lane` is the heterogeneous sibling: every
lane — typically one attacker variant each, built with
``repro.make_vec_from_specs`` — runs its *own* ``episodes`` seeded
episodes, so one lockstep pass scores a whole population or candidate
batch and each lane's aggregate equals the single-env
:func:`evaluate_policy` result for deterministic policies.
"""

from __future__ import annotations

import copy
import time

from repro.eval.metrics import EpisodeMetrics, aggregate

__all__ = [
    "run_episode",
    "evaluate_policy",
    "evaluate_policy_vec",
    "evaluate_policy_per_lane",
    "drive_vec_episodes",
]


def run_episode(env, policy, seed: int | None = None,
                max_steps: int | None = None) -> EpisodeMetrics:
    """Run one full episode and compute the paper's metrics."""
    started = time.perf_counter()
    obs = env.reset(seed=seed)
    policy.reset(env)
    gamma = env.config.reward.gamma
    horizon = env.config.tmax if max_steps is None else min(max_steps, env.config.tmax)

    discounted, discount = 0.0, 1.0
    total_cost = 0.0
    total_compromised = 0
    done, t = False, 0
    info: dict = {}
    while not done and t < horizon:
        actions = policy.act(obs)
        obs, reward, done, info = env.step(actions)
        t = info["t"]
        discounted += discount * reward
        discount *= gamma
        total_cost += info["it_cost"]
        total_compromised += info["n_compromised"]

    steps = max(t, 1)
    return EpisodeMetrics(
        discounted_return=discounted,
        final_plcs_offline=int(info.get("n_plcs_offline", 0)),
        avg_it_cost=total_cost / steps,
        avg_nodes_compromised=total_compromised / steps,
        steps=t,
        seed=seed,
        wall_time=time.perf_counter() - started,
    )


def evaluate_policy(env, policy, episodes: int, seed: int = 0,
                    max_steps: int | None = None, on_episode=None):
    """Run ``episodes`` seeded episodes; returns (aggregate, per-episode).

    ``on_episode(index, metrics)`` — when given — fires as each episode
    completes; the evaluation service uses it for progress reporting,
    incremental run-store writes, and cooperative cancellation (an
    exception raised inside the callback aborts the loop).
    """
    results = []
    for i in range(episodes):
        metrics = run_episode(env, policy, seed=seed + i, max_steps=max_steps)
        results.append(metrics)
        if on_episode is not None:
            on_episode(i, metrics)
    return aggregate(results), results


class _Lane:
    """Bookkeeping for one VectorEnv slot running episode ``ep``."""

    __slots__ = ("ep", "obs", "discounted", "discount", "cost",
                 "compromised", "t", "info", "started")

    def __init__(self, ep: int, obs):
        self.ep = ep
        self.obs = obs
        self.discounted = 0.0
        self.discount = 1.0
        self.cost = 0.0
        self.compromised = 0
        self.t = 0
        self.info: dict = {}
        self.started = time.perf_counter()

    def metrics(self, seed: int) -> EpisodeMetrics:
        steps = max(self.t, 1)
        return EpisodeMetrics(
            discounted_return=self.discounted,
            final_plcs_offline=int(self.info.get("n_plcs_offline", 0)),
            avg_it_cost=self.cost / steps,
            avg_nodes_compromised=self.compromised / steps,
            steps=self.t,
            seed=seed,
            wall_time=time.perf_counter() - self.started,
        )


def _policy_factory(policy):
    from repro.defenders.base import DefenderPolicy

    if isinstance(policy, DefenderPolicy):
        return lambda: copy.deepcopy(policy)
    if callable(policy):
        return policy
    raise TypeError("policy must be a DefenderPolicy or a factory")


def evaluate_policy_per_lane(venv, policy, episodes: int, seed: int = 0,
                             max_steps: int | None = None, on_episode=None):
    """Run ``episodes`` seeded episodes on *every* lane of ``venv``.

    Unlike :func:`evaluate_policy_vec` (which fans one environment's
    episode budget over homogeneous lanes), every lane here is its own
    evaluation subject: lane ``i`` runs episodes seeded ``seed + e``
    against a freshly reset lane of one clone of ``policy`` (one
    :meth:`~repro.defenders.base.DefenderPolicy.act_batch` call per
    round scores every lane), honouring its own ``lane_config(i)``
    horizon and discount. Returns a list of
    ``(aggregate, per-episode metrics)`` pairs, one per lane; for
    deterministic policies each pair equals what
    :func:`evaluate_policy` returns on that lane's environment. This is
    the batched engine behind the adversarial loops: attacker
    populations and CEM candidate batches are scored in one lockstep
    pass instead of sequential episode loops.

    Each record carries its episode seed and wall-clock time (lane
    start to completion under lockstep stepping), so consumers like
    the run store read them off the record instead of re-deriving
    them. ``on_episode(lane, index, metrics)`` fires per completion.
    """
    batch_policy = _policy_factory(policy)()
    n = venv.num_envs
    gammas, horizons = [], []
    for i in range(n):
        config = venv.lane_config(i)
        gammas.append(config.reward.gamma)
        horizons.append(config.tmax if max_steps is None
                        else min(max_steps, config.tmax))

    results: list[list[EpisodeMetrics | None]] = [
        [None] * episodes for _ in range(n)
    ]
    lanes: list[_Lane | None] = [None] * n
    next_ep = [0] * n

    def start(slot: int) -> None:
        ep = next_ep[slot]
        if ep >= episodes:
            lanes[slot] = None
            return
        next_ep[slot] = ep + 1
        obs = venv.reset_env(slot, seed=seed + ep)
        batch_policy.reset_lane(slot, venv.policy_env(slot))
        lanes[slot] = _Lane(ep, obs)

    was_auto_reset = venv.auto_reset
    venv.auto_reset = False  # episode boundaries are scheduled here
    try:
        for slot in range(n):
            start(slot)
        while any(lane is not None for lane in lanes):
            slots = [i for i, lane in enumerate(lanes) if lane is not None]
            actions: list = [None] * n
            chosen = batch_policy.act_batch(slots, [lanes[i].obs for i in slots])
            for i, action in zip(slots, chosen):
                actions[i] = action
            step = venv.step(actions, mask=[lane is not None for lane in lanes])
            for i, lane in enumerate(lanes):
                if lane is None:
                    continue
                lane.obs = step.observations[i]
                info = step.infos[i]
                lane.t = info["t"]
                lane.discounted += lane.discount * step.rewards[i]
                lane.discount *= gammas[i]
                lane.cost += info["it_cost"]
                lane.compromised += info["n_compromised"]
                lane.info = info
                if step.dones[i] or lane.t >= horizons[i]:
                    results[i][lane.ep] = lane.metrics(seed + lane.ep)
                    if on_episode is not None:
                        on_episode(i, lane.ep, results[i][lane.ep])
                    start(i)
    finally:
        venv.auto_reset = was_auto_reset

    assert all(r is not None for row in results for r in row)
    return [(aggregate(row), row) for row in results]


def drive_vec_episodes(venv, episodes: int, seed: int = 0, *,
                       horizon: int,
                       on_episode_start, act_batch, on_step=None,
                       on_episode_end) -> None:
    """Lockstep episode scheduler shared by evaluation, trace recording
    and vectorised DQN training.

    Fans ``episodes`` seeded episodes over the lanes of ``venv``:
    episode ``ep`` always runs with seed ``seed + ep``, lanes pick up
    the next pending episode as they finish (so results are independent
    of lane count for per-episode-deterministic agents), and auto-reset
    is suspended because episode boundaries are scheduled here. The
    agent side is supplied via callbacks:

    * ``on_episode_start(slot, ep, obs)`` — fired after
      ``reset_env(slot, seed + ep)``; bind/reset per-episode agent
      state here (``venv.policy_env(slot)`` gives the lane view);
    * ``act_batch(slots, observations) -> actions`` — called once per
      round with every active lane (in lane order) and its latest
      observation; returns one ``venv.step`` action per lane;
    * ``on_step(slot, ep, obs, reward, done, info)`` — every
      transition, with the post-step observation (optional);
    * ``on_episode_end(slot, ep, obs)`` — when the lane reports done
      or ``info["t"]`` reaches ``horizon``; ``obs`` is the final
      observation of the episode.
    """
    n = venv.num_envs
    current: list[int | None] = [None] * n
    latest_obs: list = [None] * n
    next_ep = 0

    def start(slot: int) -> None:
        nonlocal next_ep
        if next_ep >= episodes:
            current[slot] = None
            return
        ep = next_ep
        next_ep += 1
        obs = venv.reset_env(slot, seed=seed + ep)
        current[slot] = ep
        latest_obs[slot] = obs
        on_episode_start(slot, ep, obs)

    was_auto_reset = venv.auto_reset
    venv.auto_reset = False  # episode boundaries are scheduled here
    try:
        for slot in range(n):
            start(slot)
        while True:
            slots = [i for i, ep in enumerate(current) if ep is not None]
            if not slots:
                break
            actions: list = [None] * n
            chosen = act_batch(slots, [latest_obs[i] for i in slots])
            for i, action in zip(slots, chosen):
                actions[i] = action
            step = venv.step(actions, mask=[ep is not None for ep in current])
            for i in slots:
                ep = current[i]
                latest_obs[i] = step.observations[i]
                info = step.infos[i]
                if on_step is not None:
                    on_step(i, ep, step.observations[i], step.rewards[i],
                            step.dones[i], info)
                if step.dones[i] or info["t"] >= horizon:
                    on_episode_end(i, ep, latest_obs[i])
                    start(i)
    finally:
        venv.auto_reset = was_auto_reset


def evaluate_policy_vec(venv, policy, episodes: int, seed: int = 0,
                        max_steps: int | None = None, on_episode=None):
    """Batched :func:`evaluate_policy`: fan episodes over a VectorEnv.

    Episode ``i`` runs with seed ``seed + i`` against a freshly reset
    lane of one clone of ``policy`` (or of a fresh instance, when
    ``policy`` is a zero-argument factory), so for deterministic
    policies the (aggregate, per-episode) result matches the single-env
    path exactly. Lanes are stepped in lockstep via
    :func:`drive_vec_episodes`, with one
    :meth:`~repro.defenders.base.DefenderPolicy.act_batch` call per
    round; each lane picks up the next pending episode as it finishes.
    ``on_episode(index, metrics)`` fires as episodes complete (in
    completion order, not index order).
    """
    batch_policy = _policy_factory(policy)()
    n = venv.num_envs
    gamma = venv.config.reward.gamma
    tmax = venv.config.tmax
    horizon = tmax if max_steps is None else min(max_steps, tmax)

    results: list[EpisodeMetrics | None] = [None] * episodes
    lanes: list[_Lane | None] = [None] * n

    def on_episode_start(slot: int, ep: int, obs) -> None:
        batch_policy.reset_lane(slot, venv.policy_env(slot))
        lanes[slot] = _Lane(ep, obs)

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        lane = lanes[slot]
        lane.obs = obs
        lane.t = info["t"]
        lane.discounted += lane.discount * reward
        lane.discount *= gamma
        lane.cost += info["it_cost"]
        lane.compromised += info["n_compromised"]
        lane.info = info

    def on_episode_end(slot: int, ep: int, obs) -> None:
        results[ep] = lanes[slot].metrics(seed + ep)
        if on_episode is not None:
            on_episode(ep, results[ep])

    drive_vec_episodes(venv, episodes, seed=seed, horizon=horizon,
                       on_episode_start=on_episode_start,
                       act_batch=batch_policy.act_batch,
                       on_step=on_step, on_episode_end=on_episode_end)

    assert all(r is not None for r in results)
    return aggregate(results), results
