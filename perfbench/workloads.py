"""The benchmark's three workloads, driven through the public library API.

Every workload runs 16 lanes of the ``batched`` backend in this one
process and is measured in *batches*: one batch is one call into the
library that a user would make and wait for.

* ``acso-paper-vec16`` -- ``evaluate_policy_vec`` of the learned ACSO
  defender (fixed-seed ``QNetConfig()`` weights, DBN tables fitted in
  set-up) over 16 episodes on ``inasim-paper-v1``, truncated at
  :data:`ACSO_HORIZON` steps.
* ``playbook-paper-full`` -- ``evaluate_policy_vec`` of the SOC
  playbook over 16 full-horizon (5,000-step) episodes on the same net.
* ``ope-small`` -- ``record_episodes_vec`` of 16 ``StochasticQPolicy``
  behaviour episodes on ``inasim-small-v1`` into a ``TraceWriter``,
  then ``run_ope_suite`` with the ``repro ope report`` defaults over
  the on-disk ``TraceDataset``.

Batch ``k`` of a run with seed ``s`` evaluates episodes seeded
``episode_seed(s, k) + i`` for lanes ``i``; everything else (weights,
DBN tables, behaviour temperature) is fixed, so the seed alone picks
the inputs. Library entry points are looked up on their modules at
call time, so the traced run's wrappers see these calls too.
"""

from __future__ import annotations

import copy
import glob
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from hashlib import sha256
from numbers import Integral

import numpy as np

import repro
from repro.dbn import fit_dbn
from repro.defenders import ACSOPolicy, PlaybookPolicy, SemiRandomPolicy
from repro.eval import runner
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.dqn import valid_action_mask
from repro.validation import StochasticQPolicy, TraceDataset, TraceWriter
from repro.validation import suite, tracestore

__all__ = ["WORKLOADS", "Batch", "episode_seed", "digest", "LANES"]

LANES = 16
BACKEND = "batched"
#: episodes of ACSO evaluation stop here: the policy's per-step cost has
#: fixed tensor shapes, so it does not depend on the attack phase
ACSO_HORIZON = 200
#: behaviour-episode length of the ope-small recording
OPE_HORIZON = 75
#: set-up fits DBN tables on this many fixed-seed SemiRandomPolicy
#: episodes of this many steps
DBN_FIT_EPISODES = 4
DBN_FIT_STEPS = 250
#: the acso digest also pins the Q-values of this many observations;
#: the first alerts of an episode come some ten steps in
Q_PROBE_STEPS = 40
#: set-up warms each workload's path up with one batch this short
WARMUP_STEPS = 3
WARMUP_SEED = 10**9
#: episode seeds of one run's batches stay inside a block this wide
SEED_STRIDE = 100_000

#: the compact Q-net geometry ``repro ope record`` uses by default
OPE_QNET = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
#: ``repro ope record`` / ``repro ope report`` defaults
BEHAVIOR = {"temperature": 1.0, "epsilon": 0.3}
TARGET = {"temperature": 0.25, "epsilon": 0.05}
REPORT = {"clip": None, "alpha": 0.05, "n_boot": 2000, "bootstrap_seed": 0}
FQE = {"iterations": 3, "epochs_per_iteration": 1, "chunk_episodes": 64, "seed": 0}


def episode_seed(seed: int, batch: int) -> int:
    """Seed of lane 0's episode in batch ``batch`` of a run."""
    return seed * SEED_STRIDE + batch * LANES


def digest(payload, digits: int | None = None) -> str:
    """Hash of a nested list of numbers and strings.

    With ``digits`` set, floats enter the hash rounded to that many
    significant digits, so the digest survives last-bit differences
    between BLAS and SIMD builds; without it, every bit counts.
    """

    def norm(value):
        if isinstance(value, (list, tuple)):
            return [norm(v) for v in value]
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        if isinstance(value, Integral):
            return int(value)
        value = float(value)
        return repr(value) if digits is None else format(value, f".{digits}g")

    text = json.dumps(norm(payload), separators=(",", ":"))
    return sha256(text.encode()).hexdigest()[:16]


@dataclass
class Batch:
    """What one batch did and how long its public API calls took."""

    #: lane-steps evaluated, or transitions recorded for ope-small
    steps: int
    episodes: int
    #: seconds the ``steps`` took (the evaluation, or the recording)
    step_s: float
    #: wall seconds of the batch's public API calls
    wall_s: float
    #: wall seconds of the call that produced the batch's report
    report_s: float
    #: lockstep round times: decisions of every lane plus one venv.step
    rounds_ms: list[float]
    #: digest input: per-episode metrics or every OPE estimate
    payload: list
    errors: list[str] = field(default_factory=list)
    #: traced runs: self time of the wrapped layers inside each round
    rounds_inner_ms: list[float] = field(default_factory=list)
    #: extra digest input of a default-seed batch (see ``probe``)
    probe: list = field(default_factory=list)
    trace_bytes: int = 0
    trace_shards: int = 0


class _RoundClock:
    """Time-stamps every ``venv.step`` return of one vector env.

    The step is looked up on the class at call time, so a traced run's
    wrapper around ``BatchedVectorEnv.step`` still sees every call. A
    round is the interval between two step returns of one batch: every
    lane's decision plus the next step. A traced run sets ``layer_s`` to
    the tracer's running total of layer self time, read at each stamp.
    """

    def __init__(self, venv):
        self.stamps: list[float] = []
        self.inner: list[float] = []
        self.layer_s = None
        stamps, inner = self.stamps, self.inner
        clock = time.perf_counter

        def step(*args, **kwargs):
            result = type(venv).step(venv, *args, **kwargs)
            stamps.append(clock())
            if self.layer_s is not None:
                inner.append(self.layer_s())
            return result

        venv.step = step

    def take_rounds_ms(self) -> tuple[list[float], list[float]]:
        """(round times, layer self time inside each round; empty when
        untraced) since the last call."""
        stamps, inner = self.stamps, self.inner
        rounds = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        inner_ms = [(b - a) * 1e3 for a, b in zip(inner, inner[1:])]
        stamps.clear()
        inner.clear()
        return rounds, inner_ms


def _fit_tables(scenario: str):
    return fit_dbn(
        lambda: repro.make(scenario),
        lambda: SemiRandomPolicy(rate=5.0),
        episodes=DBN_FIT_EPISODES,
        seed=0,
        max_steps=DBN_FIT_STEPS,
    )


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class EvalWorkload:
    """``evaluate_policy_vec`` of one defender over 16 lanes."""

    def __init__(
        self, name: str, scenario: str, horizon: int | None, make_policy, probe=None
    ):
        self.name = name
        self.scenario = scenario
        self.horizon = horizon
        self.make_policy = make_policy
        self._probe = probe
        self.venv = None

    def setup(self) -> None:
        """Build envs and the policy (tables, weights), then warm up."""
        self.venv = repro.make_vec(self.scenario, LANES, seed=0, backend=BACKEND)
        self.policy = self.make_policy(self.scenario, self.venv)
        self.clock = _RoundClock(self.venv)
        self.n_plcs = self.venv.policy_env(0).topology.n_plcs
        runner.evaluate_policy_vec(
            self.venv, self.policy, LANES, seed=WARMUP_SEED, max_steps=WARMUP_STEPS
        )
        self.clock.take_rounds_ms()

    def run_batch(self, first_seed: int) -> Batch:
        start = time.perf_counter()
        _, results = runner.evaluate_policy_vec(
            self.venv, self.policy, LANES, seed=first_seed, max_steps=self.horizon
        )
        wall = time.perf_counter() - start
        rounds, inner = self.clock.take_rounds_ms()
        horizon = self.horizon or self.venv.config.tmax
        errors = []
        for i, r in enumerate(results):
            plausible = (
                r.seed == first_seed + i
                and 1 <= r.steps <= horizon
                and 0 <= r.final_plcs_offline <= self.n_plcs
                and _finite(r.discounted_return, r.avg_it_cost, r.avg_nodes_compromised)
            )
            if not plausible:
                errors.append(f"episode seed {first_seed + i}: implausible {r}")
        return Batch(
            steps=sum(r.steps for r in results),
            episodes=len(results),
            step_s=wall,
            wall_s=wall,
            report_s=wall,
            rounds_ms=rounds,
            rounds_inner_ms=inner,
            payload=[
                [
                    r.seed,
                    r.steps,
                    r.final_plcs_offline,
                    r.discounted_return,
                    r.avg_it_cost,
                    r.avg_nodes_compromised,
                ]
                for r in results
            ],
            errors=errors,
        )

    def probe(self, first_seed: int) -> list:
        """Extra digest input for the default-seed batch."""
        return [] if self._probe is None else self._probe(self, first_seed)

    def close(self) -> None:
        if self.venv is not None:
            self.venv.close()
            self.venv = None


def _acso_policy(scenario: str, venv) -> ACSOPolicy:
    tables = _fit_tables(scenario)
    qnet = AttentionQNetwork(QNetConfig(), seed=0)
    qnet.bind_topology(venv.policy_env(0).topology)
    return ACSOPolicy(qnet, tables)


def _acso_q_probe(workload: EvalWorkload, first_seed: int) -> list:
    """Q-values and valid-action counts of the first observations of the
    batch's first episode, replayed greedily on one env with a clone of
    the policy. The untrained weights' argmax ignores the featurizer, so
    the episode metrics alone do not pin it or the Q-network."""
    policy = copy.deepcopy(workload.policy)
    env = repro.make(workload.scenario)
    obs = env.reset(seed=first_seed)
    policy.reset(env)
    rows = []
    for _ in range(Q_PROBE_STEPS):
        q = policy.qnet.q_values(policy.featurizer.update(obs))
        mask = valid_action_mask(policy.qnet.action_list, obs)
        rows.append([round(float(v), 6) for v in q] + [int(mask.sum())])
        action = policy.qnet.action_list[int(np.argmax(np.where(mask, q, -np.inf)))]
        obs, _, _, _ = env.step([] if action.is_noop else [action])
    return rows


def _playbook_policy(scenario: str, venv) -> PlaybookPolicy:
    return PlaybookPolicy()


class OPEWorkload:
    """Record behaviour episodes to disk, then run the OPE suite."""

    name = "ope-small"
    scenario = "inasim-small-v1"

    def __init__(self, tmp_root: str):
        self.tmp_root = tmp_root
        self.venv = None

    def setup(self) -> None:
        """Build envs, fit tables, build and bind weights, warm up."""
        self.venv = repro.make_vec(self.scenario, LANES, seed=0, backend=BACKEND)
        self.topology = self.venv.policy_env(0).topology
        self.tables = _fit_tables(self.scenario)
        self.qnet = AttentionQNetwork(OPE_QNET, seed=0)
        self.qnet.bind_topology(self.topology)
        self.target = StochasticQPolicy(self.qnet, self.tables, seed=0, **TARGET)
        self.clock = _RoundClock(self.venv)
        with tempfile.TemporaryDirectory(dir=self.tmp_root) as path:
            with TraceWriter(os.path.join(path, "trace")) as writer:
                tracestore.record_episodes_vec(
                    self.venv,
                    self._behavior(WARMUP_SEED),
                    LANES,
                    writer,
                    seed=WARMUP_SEED,
                    max_steps=WARMUP_STEPS,
                )
        self.clock.take_rounds_ms()

    def _behavior(self, first_seed: int):
        def factory(ep: int) -> StochasticQPolicy:
            return StochasticQPolicy(
                self.qnet, self.tables, seed=first_seed + ep, **BEHAVIOR
            )

        return factory

    def run_batch(self, first_seed: int) -> Batch:
        path = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            trace = os.path.join(path, "trace")
            start = time.perf_counter()
            with TraceWriter(trace, meta={"scenario": self.scenario}) as writer:
                recorded = tracestore.record_episodes_vec(
                    self.venv,
                    self._behavior(first_seed),
                    LANES,
                    writer,
                    seed=first_seed,
                    max_steps=OPE_HORIZON,
                )
            record_s = time.perf_counter() - start
            rounds, inner = self.clock.take_rounds_ms()

            dataset = TraceDataset(trace)
            eval_qnet = AttentionQNetwork(OPE_QNET, seed=FQE["seed"])
            eval_qnet.bind_topology(self.topology)
            start = time.perf_counter()
            report = suite.run_ope_suite(
                dataset, self.target, eval_qnet, fqe_options=FQE, **REPORT
            )
            report_s = time.perf_counter() - start
            shards = glob.glob(os.path.join(trace, "shard-*.bin"))
            trace_bytes = sum(os.path.getsize(p) for p in shards)
        finally:
            shutil.rmtree(path)

        errors = []
        read = (dataset.num_transitions, len(dataset), report.transitions)
        if read != (recorded, LANES, recorded):
            errors.append(
                f"recorded {recorded} transitions in {LANES} episodes; the "
                f"trace holds {read[0]} in {read[1]}, the report read {read[2]}"
            )
        payload = [report.episodes, report.transitions]
        for name, e in report.estimates.items():
            payload.append([name, e.estimate, e.lower, e.upper])
            if not _finite(e.estimate, e.lower, e.upper) or e.lower > e.upper:
                errors.append(f"{name}: implausible estimate {e}")
        return Batch(
            steps=recorded,
            episodes=len(dataset),
            step_s=record_s,
            wall_s=record_s + report_s,
            report_s=report_s,
            rounds_ms=rounds,
            rounds_inner_ms=inner,
            payload=payload,
            errors=errors,
            trace_bytes=trace_bytes,
            trace_shards=len(shards),
        )

    def probe(self, first_seed: int) -> list:
        return []

    def close(self) -> None:
        if self.venv is not None:
            self.venv.close()
            self.venv = None


def make_workload(name: str, tmp_root: str):
    """A workload by name; why each was chosen is in BENCHMARK.json."""
    if name == "acso-paper-vec16":
        return EvalWorkload(
            name, "inasim-paper-v1", ACSO_HORIZON, _acso_policy, _acso_q_probe
        )
    if name == "playbook-paper-full":
        return EvalWorkload(name, "inasim-paper-v1", None, _playbook_policy)
    if name == "ope-small":
        return OPEWorkload(tmp_root)
    raise KeyError(name)


WORKLOADS = ("acso-paper-vec16", "playbook-paper-full", "ope-small")
