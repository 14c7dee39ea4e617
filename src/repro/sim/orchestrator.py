"""Defender (ACSO) actions: investigations and mitigations.

Reproduces the paper's Tables 3 and 4:

* Investigations (Table 3) stochastically detect malware on the target
  node and never raise false alarms. Detection probabilities are
  ``detect_prob``; when the node carries the *Malware Cleaned*
  condition, the probability is multiplied by
  ``(1 - cleanup_effectiveness)`` -- at the nominal effectiveness of 0.5
  this halves detection, matching the paper's "with/without cleaned"
  columns (0.03/0.01 read as 0.03 base, ~0.015 cleaned; the PDF
  typography merges these digits with the duration column).
* Mitigations (Table 4) return the node to nominal unless the listed
  countermeasure condition is present. Re-imaging has no
  countermeasure. Quarantine toggles a workstation between its home
  VLAN and the level's quarantine VLAN.

Durations for mitigations are not printed in the paper; DESIGN.md
Section 5 documents the values chosen here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.net.nodes import Condition, NodeType
from repro.net.topology import Topology
from repro.sim.state import NetworkState

__all__ = [
    "DefenderActionType",
    "DefenderActionSpec",
    "DEFENDER_ACTION_SPECS",
    "DefenderAction",
    "HOST_ACTIONS",
    "SERVER_ACTIONS",
    "PLC_ACTIONS",
    "enumerate_actions",
    "ActionMaskIndex",
    "ActionList",
    "scan_detection_prob",
    "apply_mitigation",
]


class DefenderActionType(enum.Enum):
    NOOP = "noop"
    SIMPLE_SCAN = "simple_scan"
    ADVANCED_SCAN = "advanced_scan"
    HUMAN_ANALYSIS = "human_analysis"
    REBOOT = "reboot"
    RESET_PASSWORD = "reset_password"
    REIMAGE = "reimage"
    QUARANTINE = "quarantine"
    RESET_PLC = "reset_plc"
    REPLACE_PLC = "replace_plc"


@dataclass(frozen=True)
class DefenderActionSpec:
    atype: DefenderActionType
    duration: int  # hours until the action completes
    cost_host: float
    cost_server: float
    detect_prob: float = 0.0  # investigations only; per completed action
    per_hour_detection: bool = False  # advanced scan draws each hour
    countermeasure: Condition | None = None  # mitigation blocked by this
    targets: str = "node"  # "node" | "plc" | "none"

    def cost(self, is_server: bool) -> float:
        return self.cost_server if is_server else self.cost_host

    @property
    def is_investigation(self) -> bool:
        return self.detect_prob > 0.0


_T = DefenderActionType

#: Tables 3 and 4 plus DESIGN.md Section 5 durations.
DEFENDER_ACTION_SPECS: dict[DefenderActionType, DefenderActionSpec] = {
    _T.NOOP: DefenderActionSpec(_T.NOOP, 0, 0.0, 0.0, targets="none"),
    _T.SIMPLE_SCAN: DefenderActionSpec(
        _T.SIMPLE_SCAN, 2, 0.01, 0.01, detect_prob=0.03
    ),
    _T.ADVANCED_SCAN: DefenderActionSpec(
        _T.ADVANCED_SCAN, 8, 0.03, 0.03, detect_prob=0.05, per_hour_detection=True
    ),
    _T.HUMAN_ANALYSIS: DefenderActionSpec(
        _T.HUMAN_ANALYSIS, 8, 0.05, 0.05, detect_prob=0.5
    ),
    _T.REBOOT: DefenderActionSpec(
        _T.REBOOT, 1, 0.01, 0.03, countermeasure=Condition.REBOOT_PERSIST
    ),
    _T.RESET_PASSWORD: DefenderActionSpec(
        _T.RESET_PASSWORD, 2, 0.03, 0.05, countermeasure=Condition.CRED_PERSIST
    ),
    _T.REIMAGE: DefenderActionSpec(_T.REIMAGE, 8, 0.05, 0.1),
    _T.QUARANTINE: DefenderActionSpec(_T.QUARANTINE, 1, 0.02, 0.02),
    _T.RESET_PLC: DefenderActionSpec(_T.RESET_PLC, 1, 0.02, 0.02, targets="plc"),
    _T.REPLACE_PLC: DefenderActionSpec(_T.REPLACE_PLC, 24, 0.04, 0.04, targets="plc"),
}

#: Action menus per target class; ordering fixes the Q-network layout.
HOST_ACTIONS = (
    _T.SIMPLE_SCAN, _T.ADVANCED_SCAN, _T.HUMAN_ANALYSIS,
    _T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE, _T.QUARANTINE,
)
SERVER_ACTIONS = (
    _T.SIMPLE_SCAN, _T.ADVANCED_SCAN, _T.HUMAN_ANALYSIS,
    _T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE,
)
PLC_ACTIONS = (_T.RESET_PLC, _T.REPLACE_PLC)


@dataclass(frozen=True)
class DefenderAction:
    """One defender decision; ``target`` indexes nodes or PLCs."""

    atype: DefenderActionType
    target: int | None = None

    @property
    def is_noop(self) -> bool:
        return self.atype is DefenderActionType.NOOP


NOOP = DefenderAction(DefenderActionType.NOOP)


def enumerate_actions(topology: Topology) -> list[DefenderAction]:
    """Full flat action list: NOOP, then per-node menus, then per-PLC.

    On the paper network this enumerates 329 actions -- matching the
    output dimension of the paper's baseline network (Table 7).
    """
    actions = [NOOP]
    for node in topology.nodes:
        menu = SERVER_ACTIONS if node.is_server else HOST_ACTIONS
        actions.extend(DefenderAction(a, node.node_id) for a in menu)
    for plc in topology.plcs:
        actions.extend(DefenderAction(a, plc.plc_id) for a in PLC_ACTIONS)
    return actions


@dataclass(frozen=True)
class ActionMaskIndex:
    """Where an action list's node and PLC targets sit.

    ``node_pos[k]`` is the position in the list of an action aimed at
    node ``node_target[k]``; likewise for PLCs. Noop and untargeted
    actions appear in neither, so they are always valid.
    """

    n_actions: int
    node_pos: np.ndarray
    node_target: np.ndarray
    plc_pos: np.ndarray
    plc_target: np.ndarray

    @classmethod
    def of(cls, action_list: Sequence[DefenderAction]) -> "ActionMaskIndex":
        """The index an :class:`ActionList` carries, or a fresh one."""
        if isinstance(action_list, ActionList):
            return action_list.mask_index
        return cls.build(action_list)

    @classmethod
    def build(cls, action_list: Sequence[DefenderAction]) -> "ActionMaskIndex":
        node_pos, node_target, plc_pos, plc_target = [], [], [], []
        for i, action in enumerate(action_list):
            targets = DEFENDER_ACTION_SPECS[action.atype].targets
            if targets == "node":
                node_pos.append(i)
                node_target.append(action.target)
            elif targets == "plc":
                plc_pos.append(i)
                plc_target.append(action.target)
        arrays = (np.array(v, dtype=np.intp)
                  for v in (node_pos, node_target, plc_pos, plc_target))
        return cls(len(action_list), *arrays)

    def masks(self, node_free: np.ndarray, plc_free: np.ndarray) -> np.ndarray:
        """Validity masks, shape ``(..., n_actions)``: an action is valid
        when its target is free. ``node_free`` is ``(..., n_nodes)`` and
        ``plc_free`` ``(..., n_plcs)`` with the same leading shape."""
        out = np.ones(node_free.shape[:-1] + (self.n_actions,), dtype=bool)
        out[..., self.node_pos] = node_free[..., self.node_target]
        out[..., self.plc_pos] = plc_free[..., self.plc_target]
        return out


class ActionList(list):
    """A defender action list that carries its :class:`ActionMaskIndex`,
    built on construction. Treat it as immutable: build a new list
    rather than mutating this one, or the index goes stale."""

    def __init__(self, actions=()):
        super().__init__(actions)
        self.mask_index = ActionMaskIndex.build(self)


def scan_detection_prob(
    spec: DefenderActionSpec,
    state: NetworkState,
    node_id: int,
    cleanup_effectiveness: float,
) -> float:
    """Detection probability of a completed investigation on a node.

    Zero when no malware is present (investigations never false-alarm).
    Advanced scans draw once per hour of their window; the equivalent
    completion-time probability 1 - (1-p)^duration is used.
    """
    if not state.is_compromised(node_id):
        return 0.0
    p = spec.detect_prob
    if state.has_condition(node_id, Condition.CLEANED):
        p *= 1.0 - cleanup_effectiveness
    if spec.per_hour_detection:
        p = 1.0 - (1.0 - p) ** spec.duration
    return p


def apply_mitigation(
    action: DefenderAction, state: NetworkState, topology: Topology
) -> bool:
    """Apply a completed mitigation. Returns True if state changed."""
    atype = action.atype
    if atype in (_T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE):
        node_id = action.target
        spec = DEFENDER_ACTION_SPECS[atype]
        if spec.countermeasure is not None and state.has_condition(
            node_id, spec.countermeasure
        ):
            return False
        # return the node to nominal: all compromise conditions are
        # removed except SCANNED, which models recon knowledge held by
        # the attacker rather than state on the machine (quarantine is
        # the action that invalidates recon, via the location change)
        had = bool(state.conditions[node_id, Condition.COMPROMISED])
        scanned = bool(state.conditions[node_id, Condition.SCANNED])
        state.clear_node(node_id)
        if scanned:
            state.set_condition(node_id, Condition.SCANNED)
        return had

    if atype is _T.QUARANTINE:
        node_id = action.target
        node = topology.nodes[node_id]
        if node.ntype is NodeType.SERVER:
            return False  # servers cannot be quarantined
        if state.is_quarantined(node_id):
            state.move_node(node_id, node.home_vlan)
        else:
            state.move_node(node_id, topology.quarantine_vlan_for(node))
        return True

    if atype is _T.RESET_PLC:
        return state.set_plc(action.target, firmware=False, disrupted=False)

    if atype is _T.REPLACE_PLC:
        return state.set_plc(
            action.target, firmware=False, disrupted=False, destroyed=False
        )

    raise ValueError(f"not a mitigation: {atype}")  # pragma: no cover
