"""``NetworkState.version`` is a complete change signal.

Caches key on it: the FSM attacker's phase (``_refresh_phase`` /
``act_is_noop``) and the batched engine's observation snapshots, which a
slow step keeps when the version did not move. So every path that
writes node conditions, VLAN placement or PLC flags must bump it --
including the APT's PLC attacks and the defender's PLC mitigations.
"""

import numpy as np
import pytest

from repro.config import APTConfig, tiny_network
from repro.net import Condition, NodeType, ServerRole, build_topology
from repro.sim.apt_actions import APTActionRequest, APTActionType, APTKnowledge
from repro.sim.apt_actions import apply_apt_action
from repro.sim.orchestrator import (
    DefenderAction,
    DefenderActionType,
    apply_mitigation,
)
from repro.sim.state import NetworkState

_A = APTActionType
_T = DefenderActionType


@pytest.fixture()
def topo():
    return build_topology(tiny_network().topology)


@pytest.fixture()
def state(topo):
    return NetworkState(topo)


def _bumps(state, mutate):
    before = state.version
    mutate()
    return state.version > before


def _armed_opc(state, topo, know):
    """An admin foothold on the OPC server: the APT can reach PLCs."""
    opc = topo.server(ServerRole.OPC).node_id
    state.set_condition(opc, Condition.SCANNED)
    state.set_condition(opc, Condition.COMPROMISED)
    state.set_condition(opc, Condition.ADMIN)
    know.known_vlan[opc] = state.node_vlan[opc]
    return opc


class TestStateMutators:
    def test_condition_writes_bump(self, state):
        assert _bumps(state, lambda: state.set_condition(0, Condition.SCANNED))
        assert _bumps(state, lambda: state.clear_node(0))

    def test_vlan_move_bumps(self, state, topo):
        node = topo.nodes_of_type(NodeType.WORKSTATION)[0]
        quarantine = topo.quarantine_vlan_for(node)
        assert _bumps(state, lambda: state.move_node(node.node_id, quarantine))

    @pytest.mark.parametrize("flag", ["firmware", "disrupted", "destroyed"])
    def test_set_plc_bumps_and_writes(self, state, flag):
        assert _bumps(state, lambda: state.set_plc(1, **{flag: True}))
        assert getattr(state, f"plc_{flag}")[1]
        assert not state.set_plc(1, **{flag: True})  # already set
        assert state.set_plc(1, **{flag: False})
        assert not getattr(state, f"plc_{flag}").any()


class TestSimulatorPaths:
    @pytest.mark.parametrize("atype", [
        _A.FLASH_FIRMWARE, _A.DISRUPT_PLC, _A.DESTROY_PLC,
    ])
    def test_apt_plc_attacks_bump(self, state, topo, atype):
        know = APTKnowledge()
        src = _armed_opc(state, topo, know)
        if atype is _A.DESTROY_PLC:
            state.set_plc(0, firmware=True)
        req = APTActionRequest(atype, src, target_plc=0)
        rng = np.random.default_rng(0)
        assert _bumps(state, lambda: apply_apt_action(
            req, state, know, topo, APTConfig(), rng,
        ))
        assert (state.plc_firmware[0] or state.plc_disrupted[0]
                or state.plc_destroyed[0])

    @pytest.mark.parametrize("atype", [_T.RESET_PLC, _T.REPLACE_PLC])
    def test_plc_mitigations_bump(self, state, topo, atype):
        state.set_plc(0, firmware=True, disrupted=True, destroyed=True)
        action = DefenderAction(atype, 0)
        assert _bumps(state, lambda: apply_mitigation(action, state, topo))
        assert not state.plc_disrupted[0] and not state.plc_firmware[0]
        assert state.plc_destroyed[0] == (atype is _T.RESET_PLC)

    @pytest.mark.parametrize("atype", [
        _T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE, _T.QUARANTINE,
    ])
    def test_node_mitigations_bump(self, state, topo, atype):
        node = topo.nodes_of_type(NodeType.WORKSTATION)[0].node_id
        state.set_condition(node, Condition.SCANNED)
        state.set_condition(node, Condition.COMPROMISED)
        action = DefenderAction(atype, node)
        assert _bumps(state, lambda: apply_mitigation(action, state, topo))
