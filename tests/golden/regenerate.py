#!/usr/bin/env python
"""Regenerate the golden-trajectory fixtures.

Each built-in scenario gets a JSON digest of a seeded 32-step rollout
under the deterministic playbook defender: per-step rewards, done
flags, alert counts, a short hash of each step's action-validity mask,
and a hash of the full observation (alert stream, scan results, PLC
status, busy/quarantine vectors). The replay test
(``tests/test_golden_trajectories.py``) compares fresh rollouts against
these digests, so any engine change that shifts the dynamics — reward
math, attacker FSM, IDS draws, mitigation effects, RNG scheduling —
fails loudly instead of silently redefining what "the paper scenario"
means.

One more fixture pins the learned defender's interaction path,
``acso-inasim-small-v1.json``: fixed-seed ``QNetConfig()`` weights and
DBN tables fitted here (seed 0) -- both fingerprinted -- then the
per-episode metrics of a batched ``evaluate_policy_vec`` run and a hash
of the rounded Q-values of the first steps of a greedy replay. Nothing
is downloaded; a change to the featurizer, the Q-network, the mask or
the lockstep driver that moves a result fails its replay test.

An engine pass that *intentionally* changes the trajectory
distribution (e.g. a reseeding-schedule change) must regenerate the
fixtures and say so in its PR:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).parent
SEED = 20260401
STEPS = 32


def mask_digest(mask) -> str:
    """Short stable hash of a boolean action-validity mask."""
    return hashlib.sha256(mask.astype("uint8").tobytes()).hexdigest()[:16]


def observation_digest(obs) -> str:
    """Short stable hash of everything the defender observed this step."""
    h = hashlib.sha256()
    h.update(str(obs.t).encode())
    for alert in obs.alerts:
        h.update(
            f"A{alert.t},{alert.severity},{alert.node_id},{alert.device_id}"
            .encode()
        )
    for scan in obs.scan_results:
        h.update(f"S{scan.t},{scan.node_id},{int(scan.detected)}".encode())
    for vector in (obs.plc_disrupted, obs.plc_destroyed, obs.node_busy,
                   obs.plc_busy, obs.quarantined):
        h.update(vector.astype("uint8").tobytes())
    return h.hexdigest()[:16]


def rollout_digest(scenario_id: str, seed: int = SEED,
                   steps: int = STEPS) -> dict:
    """Seeded playbook-policy rollout digest for one scenario."""
    import repro
    from repro.defenders import PlaybookPolicy

    env = repro.make(scenario_id)
    obs = env.reset(seed=seed)
    policy = PlaybookPolicy()  # deterministic, alert-reactive
    policy.reset(env)
    rewards, dones, alerts, masks, observations = [], [], [], [], []
    for _ in range(steps):
        masks.append(mask_digest(env.action_mask()))
        obs, reward, done, _ = env.step(policy.act(obs))
        rewards.append(reward)
        dones.append(bool(done))
        alerts.append(len(obs.alerts))
        observations.append(observation_digest(obs))
        if done:
            break
    return {
        "scenario_id": scenario_id,
        "seed": seed,
        "steps": len(rewards),
        "policy": "playbook",
        "rewards": rewards,
        "dones": dones,
        "n_alerts": alerts,
        "action_mask_sha256_16": masks,
        "observation_sha256_16": observations,
    }


def fixture_path(scenario_id: str) -> pathlib.Path:
    return GOLDEN_DIR / (scenario_id.replace("/", "__") + ".json")


ACSO_FIXTURE = GOLDEN_DIR / "acso-inasim-small-v1.json"
#: the ACSO fixture's recipe; the replay test rebuilds everything from it
ACSO_RECIPE = {
    "scenario": "inasim-small-v1",
    "qnet_seed": 0,
    "dbn_fit": {"rate": 5.0, "episodes": 4, "max_steps": 250, "seed": 0},
    "eval": {"episodes": 16, "num_envs": 8, "backend": "batched",
             "seed": 100, "max_steps": 150},
    "q_probe_steps": 40,
    "q_digits": 8,
}


def _array_digest(arrays, digits: int | None = None) -> str:
    """Short hash of float arrays, exact or rounded to ``digits``."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array, dtype=np.float64)
        if digits is None:
            h.update(array.tobytes())
        else:
            h.update(",".join(format(v, f".{digits}g")
                              for v in array.ravel()).encode())
    return h.hexdigest()[:16]


def acso_digest(recipe: dict = ACSO_RECIPE) -> dict:
    """Metrics and Q-value digest of the fixed-seed ACSO defender."""
    import repro
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy
    from repro.defenders.acso import ACSOPolicy
    from repro.eval import evaluate_policy_vec
    from repro.rl import AttentionQNetwork, QNetConfig
    from repro.rl.dqn import valid_action_mask

    scenario = recipe["scenario"]
    fit = recipe["dbn_fit"]
    tables = fit_dbn(
        lambda: repro.make(scenario),
        lambda: SemiRandomPolicy(rate=fit["rate"]),
        episodes=fit["episodes"],
        seed=fit["seed"],
        max_steps=fit["max_steps"],
    )
    qnet = AttentionQNetwork(QNetConfig(), seed=recipe["qnet_seed"])
    policy = ACSOPolicy(qnet, tables)

    run = recipe["eval"]
    venv = repro.make_vec(scenario, run["num_envs"], seed=0,
                          backend=run["backend"])
    try:
        _, results = evaluate_policy_vec(
            venv, policy, run["episodes"], seed=run["seed"],
            max_steps=run["max_steps"],
        )
    finally:
        venv.close()

    # greedy replay of the first episode on one env: the Q-values and
    # valid-action counts the policy saw
    env = repro.make(scenario)
    obs = env.reset(seed=run["seed"])
    policy.reset(env)
    q_rows, valid_counts = [], []
    for _ in range(recipe["q_probe_steps"]):
        q = policy.qnet.q_values(policy.featurizer.update(obs))
        mask = valid_action_mask(policy.qnet.action_list, obs)
        q_rows.append(q)
        valid_counts.append(int(mask.sum()))
        action = policy.qnet.action_list[int(np.argmax(np.where(mask, q, -np.inf)))]
        obs, _, done, _ = env.step([] if action.is_noop else [action])
        if done:
            break

    return {
        "recipe": recipe,
        "weights_sha256_16": _array_digest(
            [p.data for _, p in sorted(qnet.named_parameters())]
        ),
        "dbn_tables_sha256_16": _array_digest(
            [tables.transition, tables.alert_lik, tables.scan_lik], digits=10
        ),
        "episodes": [
            {
                "seed": r.seed,
                "steps": r.steps,
                "final_plcs_offline": r.final_plcs_offline,
                "discounted_return": r.discounted_return,
                "avg_it_cost": r.avg_it_cost,
                "avg_nodes_compromised": r.avg_nodes_compromised,
            }
            for r in results
        ],
        "q_steps": len(q_rows),
        "q_values_sha256_16": _array_digest(q_rows, digits=recipe["q_digits"]),
        "valid_action_counts": valid_counts,
    }


def _write(path: pathlib.Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def main() -> None:
    import repro

    for spec in repro.scenarios.BUILTIN_SCENARIOS:
        digest = rollout_digest(spec.scenario_id)
        path = fixture_path(spec.scenario_id)
        _write(path, digest)
        print(f"wrote {path.name}: {digest['steps']} steps")
    acso = acso_digest()
    _write(ACSO_FIXTURE, acso)
    print(f"wrote {ACSO_FIXTURE.name}: {len(acso['episodes'])} episodes")


if __name__ == "__main__":
    main()
