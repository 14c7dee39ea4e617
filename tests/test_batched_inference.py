"""Batched, graph-free ACSO inference is the same policy, bit for bit.

Under ``no_grad`` the attention Q-network runs numpy ``infer`` kernels
instead of building a Tensor graph, and a lockstep round scores every
lane with one stacked forward and one vectorised mask. These tests pin
that each step changes nothing: the graph-free forward equals the
Tensor forward exactly, batched ACSO evaluation equals per-episode
runs, the batched argmax equals the per-lane argmax on every lane-step,
and DQN training and trace recording produce what they did before.
"""

import copy
import hashlib

import numpy as np
import pytest

import repro
from repro.defenders import PlaybookPolicy
from repro.defenders.acso import ACSOPolicy
from repro.eval import evaluate_policy_vec, run_episode
from repro.nn import (
    AttentionBlock,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadSelfAttention,
    NoisyLinear,
    NoisyMLP,
    Tensor,
    no_grad,
)
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    DQNConfig,
    DQNTrainer,
    DistributionalAttentionQNetwork,
    DuelingAttentionQNetwork,
    QNetConfig,
    TopologyMismatchError,
)
from repro.rl.dqn import valid_action_mask
from repro.rl.features import FeatureSet, stack_features
from repro.rl.qnetwork import INFERENCE_BLOCK_ROWS
from repro.validation import StochasticQPolicy, TraceWriter, record_episodes_vec
from repro.validation.logging import decide_batch

SMALL_QNET = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)


def _random_features(net, topology, rows, seed=0):
    rng = np.random.default_rng(seed)
    node_dim = net.node_encoder.linears[0].in_features
    return [
        FeatureSet(
            rng.normal(size=(topology.n_nodes, node_dim)),
            rng.normal(size=(topology.n_plcs, 3)),
            rng.normal(size=3),
        )
        for _ in range(rows)
    ]


def _episode_fields(metrics):
    return [
        (m.seed, m.steps, m.final_plcs_offline, m.discounted_return,
         m.avg_it_cost, m.avg_nodes_compromised)
        for m in metrics
    ]


class TestGraphFreeForward:
    CONFIGS = {
        "default": QNetConfig(),
        "paper": QNetConfig.paper(),
        "noisy": QNetConfig(noisy_heads=True),
    }

    @pytest.mark.parametrize("scenario", ["inasim-tiny-v1", "inasim-paper-v1"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_bitwise_equal_to_tensor_graph(self, scenario, name):
        topology = repro.make(scenario).topology
        net = AttentionQNetwork(self.CONFIGS[name], seed=3).bind_topology(topology)
        features = _random_features(net, topology, 16)
        for noise in (True, False) if name == "noisy" else (True,):
            net.set_noise_enabled(noise)
            for rows in (1, 8, 16):
                inputs = stack_features(features[:rows])
                graph = net.forward(*inputs)
                assert graph.requires_grad  # the Tensor path ran
                with no_grad():
                    fast = net.forward(*inputs)
                assert not fast.requires_grad and not fast._parents
                assert np.array_equal(fast.data, graph.data), (name, noise, rows)

    def test_rows_are_independent_of_their_block(self):
        """Blocked scoring (INFERENCE_BLOCK_ROWS rows per pass) gives
        every row the value it gets alone."""
        topology = repro.make("inasim-small-v1").topology
        net = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(topology)
        rows = 2 * INFERENCE_BLOCK_ROWS + 3
        features = _random_features(net, topology, rows, seed=1)
        with no_grad():
            stacked = net.forward(*stack_features(features)).data
        assert stacked.shape == (rows, net.n_actions)
        for i, f in enumerate(features):
            assert np.array_equal(stacked[i], net.q_values(f))

    @pytest.mark.parametrize("make", [
        lambda rng: Linear(6, 5, rng=rng),
        lambda rng: MLP([6, 9, 5], rng=rng),
        lambda rng: MLP([6, 9, 5], act="relu", final_act="tanh", rng=rng),
        lambda rng: MLP([6, 9, 5], act="sigmoid", rng=rng),
        lambda rng: LayerNorm(6),
        lambda rng: MultiHeadSelfAttention(6, n_heads=3, rng=rng),
        lambda rng: AttentionBlock(6, n_heads=2, rng=rng),
        lambda rng: NoisyLinear(6, 5, rng=rng),
        lambda rng: NoisyMLP([6, 9, 5], rng=rng),
    ], ids=["linear", "mlp", "mlp-relu-tanh", "mlp-sigmoid", "layernorm",
            "attention", "block", "noisy-linear", "noisy-mlp"])
    def test_module_infer_matches_forward(self, make):
        rng = np.random.default_rng(4)
        module = make(rng)
        if isinstance(module, LayerNorm):
            module.gamma.data = rng.normal(size=6)
            module.beta.data = rng.normal(size=6)
        x = rng.normal(size=(3, 7, 6))
        x[0, 0, :3] = 0.0  # activations at exactly zero
        for noise in (True, False):
            module.set_noise_enabled(noise)
            expected = module(Tensor(x)).data
            got = module.infer(x.copy())
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("cls", [DuelingAttentionQNetwork,
                                     DistributionalAttentionQNetwork])
    def test_subclasses_keep_the_tensor_path(self, cls):
        topology = repro.make("inasim-tiny-v1").topology
        net = cls(SMALL_QNET, seed=0).bind_topology(topology)
        inputs = stack_features(_random_features(net, topology, 4))
        with no_grad():
            q = net.forward(*inputs).data
        assert np.array_equal(q, net.forward(*inputs).data)


class TestBinding:
    def test_rebinding_the_same_layout_is_a_no_op(self):
        venv = repro.make_vec("inasim-small-v1", 2, seed=0)
        net = AttentionQNetwork(SMALL_QNET, seed=0)
        net.bind_topology(venv.policy_env(0).topology)
        actions, key = net.action_list, net.topology_key
        net.bind_topology(venv.policy_env(1).topology)  # equal layout
        assert net.action_list is actions and net.topology_key == key
        net.bind_topology(repro.make("inasim-tiny-v1").topology)
        assert net.action_list is not actions and net.topology_key != key

    def test_acso_lanes_on_different_topologies_fail_loudly(self, tiny_tables):
        tiny, small = repro.make("inasim-tiny-v1"), repro.make("inasim-small-v1")
        policy = ACSOPolicy(AttentionQNetwork(SMALL_QNET, seed=0), tiny_tables)
        observations = [tiny.reset(seed=0), small.reset(seed=0)]
        policy.reset_lane(0, tiny)
        policy.reset_lane(1, small)
        with pytest.raises(TopologyMismatchError):
            policy.act_batch([0, 1], observations)
        # the lane reset on the bound topology still acts
        assert len(policy.act_batch([1], observations[1:])) == 1

    def test_behaviour_lanes_on_different_topologies_fail_loudly(
        self, tiny_tables
    ):
        tiny, small = repro.make("inasim-tiny-v1"), repro.make("inasim-small-v1")
        qnet = AttentionQNetwork(SMALL_QNET, seed=0)
        a = StochasticQPolicy(qnet, tiny_tables, temperature=1.0, seed=0)
        b = StochasticQPolicy(qnet, tiny_tables, temperature=1.0, seed=1)
        a.reset(tiny)
        b.reset(small)
        with pytest.raises(TopologyMismatchError):
            decide_batch([a, b], [tiny.reset(seed=0), small.reset(seed=0)])


class TestBatchedACSO:
    @pytest.fixture(scope="class")
    def small_setup(self, tiny_tables):
        qnet = AttentionQNetwork(QNetConfig(), seed=2)
        return ACSOPolicy(qnet, tiny_tables)

    @pytest.mark.parametrize("backend", ["sync", "batched"])
    def test_vec_evaluation_equals_per_episode_runs(self, small_setup, backend):
        policy = small_setup
        venv = repro.make_vec("inasim-small-v1", 4, seed=0, backend=backend)
        _, batched = evaluate_policy_vec(venv, policy, 6, seed=20, max_steps=40)
        env = repro.make("inasim-small-v1")
        single = [run_episode(env, policy, seed=20 + i, max_steps=40)
                  for i in range(6)]
        assert _episode_fields(batched) == _episode_fields(single)
        venv.close()

    def test_per_lane_evaluation_shares_one_qnet(self, small_setup):
        """Heterogeneous attacker lanes share the topology, so one
        Q-network scores them all; each lane still equals its own
        single-env evaluation."""
        from repro.eval import evaluate_policy, evaluate_policy_per_lane

        base = repro.get_scenario("inasim-small-v1").with_overrides(horizon=25)
        variant = base.with_overrides(
            scenario_id="batched-acso-variant",
            apt_overrides={"lateral_threshold": 1, "labor_rate": 3},
        )
        venv = repro.make_vec_from_specs([base, variant], seed=0)
        per_lane = evaluate_policy_per_lane(venv, small_setup, episodes=2, seed=3)
        for spec, (_, episodes) in zip([base, variant], per_lane):
            _, reference = evaluate_policy(repro.make(spec), small_setup, 2, seed=3)
            assert _episode_fields(episodes) == _episode_fields(reference)
        venv.close()

    def test_batched_argmax_equals_per_lane_argmax(self, small_setup):
        """On every lane-step, the stacked forward + vectorised mask pick
        the action a batch-1 forward + single mask picks for that lane."""
        steps = []

        class Checked(ACSOPolicy):
            def act_batch(self, lanes, observations):
                expected = []
                for lane, obs in zip(lanes, observations):
                    featurizer = copy.deepcopy(self._featurizers[lane])
                    q = self.qnet.q_values(featurizer.update(obs))
                    mask = valid_action_mask(self.qnet.action_list, obs)
                    expected.append(int(np.argmax(np.where(mask, q, -np.inf))))
                chosen = super().act_batch(lanes, observations)
                index = {a: i for i, a in enumerate(self.qnet.action_list)}
                got = [index[c[0]] if c else 0 for c in chosen]
                steps.append((len(lanes), got == expected))
                return chosen

        policy = Checked(small_setup.qnet, small_setup.tables)
        venv = repro.make_vec("inasim-small-v1", 5, seed=0, backend="batched")
        evaluate_policy_vec(venv, policy, 8, seed=3, max_steps=30)
        assert steps and all(ok for _, ok in steps)
        assert max(n for n, _ in steps) == 5
        venv.close()

    def test_act_is_the_one_lane_case(self, small_setup):
        policy = copy.deepcopy(small_setup)
        twin = copy.deepcopy(small_setup)
        env = repro.make("inasim-small-v1")
        obs = env.reset(seed=1)
        policy.reset(env)
        twin.reset_lane(0, env)
        assert policy.featurizer is not None
        for _ in range(5):
            actions = policy.act(obs)
            assert twin.act_batch([0], [obs]) == [actions]
            obs, _, _, _ = env.step(actions)

    def test_evaluation_leaves_the_callers_policy_alone(self, small_setup):
        policy = ACSOPolicy(copy.deepcopy(small_setup.qnet), small_setup.tables)
        venv = repro.make_vec("inasim-small-v1", 2, seed=0, backend="batched")
        evaluate_policy_vec(venv, policy, 2, seed=0, max_steps=5)
        assert policy.featurizer is None
        venv.close()

    def test_default_act_batch_is_a_per_lane_loop(self):
        env_a, env_b = repro.make("inasim-small-v1"), repro.make("inasim-small-v1")
        obs = [env_a.reset(seed=1), env_b.reset(seed=2)]
        batch = PlaybookPolicy()
        batch.reset_lane(0, env_a)
        batch.reset_lane(3, env_b)
        solo = [PlaybookPolicy(), PlaybookPolicy()]
        solo[0].reset(env_a)
        solo[1].reset(env_b)
        for _ in range(20):
            actions = batch.act_batch([0, 3], obs)
            assert actions == [p.act(o) for p, o in zip(solo, obs)]
            obs = [env.step(a)[0] for env, a in zip((env_a, env_b), actions)]
        # a lane copy starts with an empty lane table of its own
        assert batch._lane_copies[0]._lane_copies == {}


class TestUnchangedResults:
    def test_train_vec_history_is_pinned(self, tiny_tables):
        """A fixed-seed vectorised DQN run reproduces the history the
        per-lane, graph-building implementation produced."""
        venv = repro.make_vec("inasim-tiny-v1", 3, seed=0)
        qnet = AttentionQNetwork(SMALL_QNET, seed=0)
        trainer = DQNTrainer(
            venv, qnet, ACSOFeaturizer(venv.policy_env(0).topology, tiny_tables),
            DQNConfig(batch_size=8, warmup=16, update_every=2, buffer_size=500,
                      target_update=20, seed=3),
        )
        history = trainer.train(5, seed=4, max_steps=12)
        got = [(h.episode, h.env_return, h.shaped_return, h.steps,
                h.mean_loss, h.epsilon) for h in history]
        expected = [
            (0, 13.146826804142554, 0.509591499999999, 12,
             2.516133513552337, 0.9675225846837673),
            (1, 13.131894645620461, 0.5095839999999989, 12,
             2.516133513552337, 0.9675225846837673),
            (2, 13.135876204762083, 0.508585999999999, 12,
             2.062983956216523, 0.9675225846837673),
            (3, 13.144829798400794, 0.5095904999999991, 12,
             1.4565013582804334, 0.9436225637280605),
            (4, 13.1348687025575, 0.509335499999999, 12,
             1.4513715649352588, 0.9436225637280605),
        ]
        assert [g[0] for g in got] == [e[0] for e in expected]
        for g, e in zip(got, expected):
            assert g[3] == e[3]
            assert g[1:3] + g[4:] == pytest.approx(e[1:3] + e[4:], rel=1e-9)

    def _record(self, tmp_path, tables, name, shared: bool):
        venv = repro.make_vec("inasim-tiny-v1", 3, seed=0, horizon=8)
        qnet = AttentionQNetwork(SMALL_QNET, seed=1)
        qnet.bind_topology(venv.policy_env(0).topology)

        def factory(ep):
            net = qnet if shared else copy.deepcopy(qnet)
            return StochasticQPolicy(net, tables, temperature=1.0,
                                     epsilon=0.3, seed=50 + ep)

        path = tmp_path / name
        with TraceWriter(path, shard_rows=32) as writer:
            record_episodes_vec(venv, factory, 5, writer, seed=11, max_steps=8)
        venv.close()
        digest = hashlib.sha256()
        for shard in sorted(path.glob("shard-*.bin")):
            digest.update(shard.read_bytes())
        return digest.hexdigest()

    def test_trace_is_byte_identical_to_per_lane_scoring(
        self, tmp_path, tiny_tables
    ):
        """Lanes sharing a Q-network are scored in one stacked forward;
        lanes with their own copy each get a batch-1 forward. The
        recorded shards are the same bytes."""
        stacked = self._record(tmp_path, tiny_tables, "stacked", shared=True)
        per_lane = self._record(tmp_path, tiny_tables, "per-lane", shared=False)
        assert stacked == per_lane

    def test_each_behaviour_draws_from_its_own_rng(self, tiny_tables):
        env = repro.make("inasim-tiny-v1")
        obs = env.reset(seed=0)
        qnet = AttentionQNetwork(SMALL_QNET, seed=0)
        policies = []
        for seed in (5, 6, 7):
            policy = StochasticQPolicy(qnet, tiny_tables, temperature=1.0,
                                       epsilon=0.3, seed=seed)
            policy.reset(env)
            policies.append(policy)
        solo = copy.deepcopy(policies)
        batched = decide_batch(policies, [obs] * 3)
        for policy, got in zip(solo, batched):
            want = policy.decide(obs)
            assert (got[0], got[1]) == (want[0], want[1])
            assert np.array_equal(got[3], want[3])
