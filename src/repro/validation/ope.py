"""Importance-sampling estimators of a target policy's value.

Given episodes logged under a behaviour policy b and a target policy
pi, each step has an importance ratio rho_t = pi(a_t|s_t) / b(a_t|s_t).
Three standard estimators (Precup 2000; Thomas 2015):

* **Ordinary IS**: mean over episodes of w_T * G, where w_T is the
  full-trajectory ratio product and G the discounted return. Unbiased,
  unbounded variance.
* **Weighted IS**: the w_T-weighted mean of returns. Biased, consistent,
  much lower variance.
* **Per-decision IS**: credit each reward only with the ratios up to
  its own time step: sum_t gamma^t w_t r_t. Unbiased with lower
  variance than ordinary IS.

The effective sample size ESS = (sum w)^2 / sum w^2 diagnoses weight
degeneracy -- the central failure mode over INASIM's 5,000-step
horizons, and the reason the doubly-robust estimator of
:mod:`repro.validation.fqe` exists.

Every estimator takes any *iterable* of logged episodes — an in-memory
list or a :class:`~repro.validation.datasets.TraceDataset` streaming
shards off disk — and makes exactly one pass, keeping only three
scalars per episode (:class:`EpisodeOPEStats`). Those per-episode
reductions are shared with :func:`~repro.validation.suite.run_ope_suite`
so the suite's numbers equal the standalone estimators bit for bit.

The target policy's distributions come from :func:`target_action_probs`
alone. A :class:`ScoredSource` calls it once per episode of a chunk, on
every logged state and the final state, and hands the per-episode
arrays (:class:`ScoredEpisode`) to the IS scalars, the FQE fit and DR,
so a suite run scores each state at most once per pass over the source
— and only once in all when the source fits in one chunk. Scoring one
episode at a time keeps the forward's stacked input to one episode's
states: a whole chunk's stack, freed next to the distributions kept
beside it, fragments the heap and raises peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from repro.validation.datasets import iter_episode_chunks
from repro.validation.logging import LoggedEpisode

__all__ = [
    "OPEResult",
    "EpisodeOPEStats",
    "BehaviorSupportError",
    "step_ratios",
    "episode_ope_stats",
    "collect_ope_stats",
    "wis_point_estimate",
    "target_action_probs",
    "ScoredEpisode",
    "ScoredSource",
    "effective_sample_size",
    "ordinary_importance_sampling",
    "weighted_importance_sampling",
    "per_decision_importance_sampling",
]


@dataclass(frozen=True)
class OPEResult:
    """A value estimate with sampling diagnostics."""

    estimate: float
    stderr: float
    #: effective sample size of the trajectory weights
    ess: float
    episodes: int
    method: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.method}: {self.estimate:.2f} +/- {self.stderr:.2f} "
            f"(ESS {self.ess:.1f} / {self.episodes})"
        )


class BehaviorSupportError(ValueError):
    """A logged step breaks the importance-sampling support condition.

    Raised — naming the offending episode and step — instead of letting
    a zero or denormal behaviour probability turn the trajectory weight
    into silent NaN/inf that poisons every downstream mean.
    """


def target_action_probs(target_policy, features_list, masks) -> list:
    """Target-policy distributions for a batch of logged states.

    Uses the policy's vectorized ``action_probs_batch`` when it has one
    (one stacked network forward instead of a forward per step) and
    falls back to per-state ``action_probs``. Every estimator in this
    package resolves propensities through here, so a given policy
    always takes the same numerical path — which is what keeps the
    suite, the standalone estimators, and the on-disk replay of a log
    bit-identical to each other.
    """
    batch = getattr(target_policy, "action_probs_batch", None)
    if batch is not None:
        return list(batch(features_list, masks))
    return [
        target_policy.action_probs(features, mask)
        for features, mask in zip(features_list, masks)
    ]


@dataclass(frozen=True)
class ScoredEpisode:
    """A logged episode with the target distribution at each state."""

    episode: LoggedEpisode
    #: pi(.|s_t) at every logged step
    probs: list
    #: pi(.|s_T) at the state after the last step (FQE's bootstrap)
    final_probs: np.ndarray


def score_episode(episode: LoggedEpisode, target_policy) -> ScoredEpisode:
    """Score every logged state of ``episode`` and its final state in
    one :func:`target_action_probs` call."""
    final_features, final_mask = episode.final_state()
    probs = target_action_probs(
        target_policy,
        [step.features for step in episode.steps] + [final_features],
        [step.mask for step in episode.steps] + [final_mask],
    )
    return ScoredEpisode(episode, probs[:-1], probs[-1])


class ScoredChunk:
    """One chunk of logged episodes; the target distributions at its
    states are scored on first use, then kept with the chunk."""

    def __init__(self, episodes: list[LoggedEpisode], target_policy):
        self.episodes = episodes
        self.target_policy = target_policy

    @cached_property
    def scored(self) -> list[ScoredEpisode]:
        return [score_episode(episode, self.target_policy)
                for episode in self.episodes]


class ScoredSource:
    """An episode source read ``chunk_episodes`` episodes at a time,
    each chunk a :class:`ScoredChunk` for one target policy.

    A source that fits in one chunk is decoded once, and its chunk —
    with its distributions, once scored — is kept for every later pass.
    A larger source is re-streamed (and re-scored) on each pass, so
    memory stays at one chunk plus its distribution table. Chunk
    boundaries depend only on episode count, as in
    :func:`~repro.validation.datasets.iter_episode_chunks`.
    """

    def __init__(self, episodes: Iterable[LoggedEpisode], target_policy,
                 chunk_episodes: int):
        self.episodes = episodes
        self.target_policy = target_policy
        self.chunk_episodes = chunk_episodes
        self._kept: ScoredChunk | None = None

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self) -> Iterator[ScoredChunk]:
        if self._kept is not None:
            yield self._kept
            return
        keep = len(self.episodes) <= self.chunk_episodes
        for episodes in iter_episode_chunks(self.episodes,
                                            self.chunk_episodes):
            chunk = ScoredChunk(episodes, self.target_policy)
            if keep:
                self._kept = chunk
            yield chunk

    def scored_episodes(self) -> Iterator[ScoredEpisode]:
        """Every episode of the source with its distributions."""
        for chunk in self:
            yield from chunk.scored


def step_ratios(episode: LoggedEpisode, target_policy,
                clip: float | None = None,
                label: int | str | None = None,
                target_probs: list | None = None) -> np.ndarray:
    """Per-step importance ratios pi(a_t|s_t) / b(a_t|s_t).

    ``target_policy`` must expose ``action_probs(features, mask)``;
    ``target_probs``, when the caller has scored the episode already
    (:class:`ScoredEpisode`), are used instead. ``clip`` truncates each
    ratio from above (weight clipping trades a small bias for bounded
    variance). A zero behaviour probability or a non-finite raw ratio
    raises :class:`BehaviorSupportError` naming the episode (``label``,
    or the episode's seed) and step — clipping happens *after* this
    check, so ``clip`` can never paper over a broken log by truncating
    an infinite ratio.
    """
    if label is None and episode.seed is not None:
        label = f"seed={episode.seed}"
    where = "episode" if label is None else f"episode {label}"
    probs_list = target_probs
    if probs_list is None:
        probs_list = target_action_probs(
            target_policy,
            [step.features for step in episode.steps],
            [step.mask for step in episode.steps],
        )
    ratios = np.empty(len(episode))
    for t, (step, target_probs) in enumerate(zip(episode.steps, probs_list)):
        if step.behavior_prob <= 0:
            raise BehaviorSupportError(
                f"{where} step {t}: behaviour probability is zero; the "
                "behaviour policy must have full support over logged "
                "actions"
            )
        ratio = target_probs[step.action] / step.behavior_prob
        if not np.isfinite(ratio):
            raise BehaviorSupportError(
                f"{where} step {t}: importance ratio is not finite "
                f"(target {target_probs[step.action]!r} / behaviour "
                f"{step.behavior_prob!r})"
            )
        ratios[t] = ratio
    if clip is not None:
        np.clip(ratios, 0.0, clip, out=ratios)
    return ratios


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish's ESS: (sum w)^2 / sum w^2 (0 when all weights vanish)."""
    weights = np.asarray(weights, dtype=float)
    finite = np.isfinite(weights)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"trajectory weight {bad} is {weights[bad]!r}; non-finite "
            "weights make the effective sample size meaningless — fix "
            "the log (see BehaviorSupportError) or clip the ratios"
        )
    denom = float((weights ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(weights.sum() ** 2 / denom)


@dataclass(frozen=True)
class EpisodeOPEStats:
    """The three per-episode scalars every IS estimator reduces over."""

    #: full-trajectory importance weight (product of step ratios)
    weight: float
    #: behaviour-policy discounted return
    ret: float
    #: per-decision IS value sum_t gamma^t w_t r_t
    pdis: float


def episode_ope_stats(episode: LoggedEpisode, target_policy,
                      clip: float | None = None,
                      label: int | str | None = None,
                      target_probs: list | None = None) -> EpisodeOPEStats:
    """One streaming pass over an episode's steps → its IS scalars
    (``target_probs`` as in :func:`step_ratios`)."""
    ratios = step_ratios(episode, target_policy, clip, label=label,
                         target_probs=target_probs)
    cumulative = np.cumprod(ratios)
    discounts = episode.gamma ** np.arange(len(episode))
    pdis = float(np.sum(discounts * cumulative * episode.rewards))
    weight = float(cumulative[-1]) if len(cumulative) else 1.0
    return EpisodeOPEStats(weight=weight, ret=episode.discounted_return(),
                           pdis=pdis)


def collect_ope_stats(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> Iterator[EpisodeOPEStats]:
    """Stream :class:`EpisodeOPEStats` for an episode source.

    Works unchanged over a list or a
    :class:`~repro.validation.datasets.TraceDataset`; features are
    consumed one episode at a time and only the scalars survive.
    """
    for index, episode in enumerate(episodes):
        yield episode_ope_stats(episode, target_policy, clip, label=index)


def _stats_arrays(stats: Iterable[EpisodeOPEStats]):
    stats = list(stats)
    if not stats:
        raise ValueError("need at least one logged episode")
    return (
        np.array([s.weight for s in stats]),
        np.array([s.ret for s in stats]),
        np.array([s.pdis for s in stats]),
    )


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size <= 1:
        return float(values.mean()) if values.size else 0.0, 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def wis_point_estimate(weights: np.ndarray, returns: np.ndarray) -> float:
    """The self-normalized estimate sum_i (w_i / sum w) G_i."""
    total = weights.sum()
    if total == 0.0:
        return 0.0
    return float((weights / total) @ returns)


def ordinary_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Unbiased full-trajectory IS estimate of the target value."""
    weights, returns, _ = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip)
    )
    estimate, stderr = _mean_stderr(weights * returns)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "OIS")


def weighted_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Self-normalized IS: biased, consistent, low variance."""
    weights, returns, _ = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip)
    )
    total = weights.sum()
    if total == 0.0:
        estimate = 0.0
        residuals = np.zeros_like(returns)
    else:
        normalized = weights / total
        estimate = float(normalized @ returns)
        residuals = normalized * (returns - estimate) * len(weights)
    _, stderr = _mean_stderr(residuals)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "WIS")


def per_decision_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Per-decision IS: each reward weighted by ratios up to its step."""
    weights, _, values = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip)
    )
    estimate, stderr = _mean_stderr(values)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "PDIS")
