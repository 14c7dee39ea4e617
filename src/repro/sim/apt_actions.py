"""APT action definitions and execution (paper Table 5).

Each action has a success probability, a Binomial(n, p) duration
distribution in hours, a base IDS alert rate, and a severity class.
"Message" actions originate on one node and act on another object
through the network; their alert rate is multiplied by the device factor
of every networking device on the path (appendix, IDS module).

Preconditions are re-validated when an action *completes*: if the
defender has, for example, re-imaged the source node mid-action, the
action fails silently. This is what forces the FSM attacker to revert
to earlier phases after successful mitigations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import APTConfig
from repro.net.nodes import Condition, ServerRole
from repro.net.topology import Topology
from repro.sim.state import NetworkState

__all__ = [
    "APTActionType",
    "APTActionSpec",
    "APT_ACTION_SPECS",
    "APTActionRequest",
    "APTKnowledge",
    "APTView",
    "sample_duration",
    "apply_apt_action",
]


class APTActionType(enum.Enum):
    # lateral movement
    SCAN_VLAN = "scan_vlan"
    COMPROMISE = "compromise"
    REBOOT_PERSIST = "reboot_persist"
    ESCALATE = "escalate"
    CRED_PERSIST = "cred_persist"
    CLEANUP = "cleanup"
    # vertical movement
    DISCOVER_VLAN = "discover_vlan"
    DISCOVER_SERVER = "discover_server"
    ANALYZE_HISTORIAN = "analyze_historian"
    # attack
    DISCOVER_PLC = "discover_plc"
    FLASH_FIRMWARE = "flash_firmware"
    DISRUPT_PLC = "disrupt_plc"
    DESTROY_PLC = "destroy_plc"


@dataclass(frozen=True)
class APTActionSpec:
    atype: APTActionType
    success_prob: float
    time_n: int  # Binomial n
    time_p: float  # Binomial p
    alert_rate: float
    is_message: bool  # message actions multiply alert rate by device factors
    severity: int  # IDS alert severity if an alert fires

    @property
    def expected_duration(self) -> float:
        return self.time_n * self.time_p


def _spec(atype, success, n, p, rate, message, severity) -> APTActionSpec:
    return APTActionSpec(atype, success, n, p, rate, message, severity)


#: Table 5, verbatim. Severity classes follow DESIGN.md Section 5.
APT_ACTION_SPECS: dict[APTActionType, APTActionSpec] = {
    APTActionType.SCAN_VLAN: _spec(APTActionType.SCAN_VLAN, 1.0, 60, 0.9, 0.01, True, 1),
    APTActionType.COMPROMISE: _spec(APTActionType.COMPROMISE, 0.9, 60, 0.8, 0.05, True, 2),
    APTActionType.REBOOT_PERSIST: _spec(APTActionType.REBOOT_PERSIST, 1.0, 4, 0.9, 0.05, False, 2),
    APTActionType.ESCALATE: _spec(APTActionType.ESCALATE, 1.0, 22, 0.9, 0.05, False, 2),
    APTActionType.CRED_PERSIST: _spec(APTActionType.CRED_PERSIST, 1.0, 4, 0.9, 0.05, False, 2),
    APTActionType.CLEANUP: _spec(APTActionType.CLEANUP, 1.0, 4, 0.9, 0.05, False, 2),
    APTActionType.DISCOVER_VLAN: _spec(APTActionType.DISCOVER_VLAN, 1.0, 60, 0.9, 0.05, True, 1),
    APTActionType.DISCOVER_SERVER: _spec(APTActionType.DISCOVER_SERVER, 1.0, 60, 0.9, 0.01, True, 1),
    APTActionType.ANALYZE_HISTORIAN: _spec(APTActionType.ANALYZE_HISTORIAN, 1.0, 600, 0.9, 0.0, False, 2),
    APTActionType.DISCOVER_PLC: _spec(APTActionType.DISCOVER_PLC, 1.0, 24, 0.875, 0.03, True, 1),
    APTActionType.FLASH_FIRMWARE: _spec(APTActionType.FLASH_FIRMWARE, 1.0, 1, 1.0, 0.5, True, 3),
    APTActionType.DISRUPT_PLC: _spec(APTActionType.DISRUPT_PLC, 1.0, 8, 0.9, 0.9, True, 3),
    APTActionType.DESTROY_PLC: _spec(APTActionType.DESTROY_PLC, 1.0, 1, 1.0, 1.0, True, 3),
}


def sample_duration(
    spec: APTActionSpec, rng: np.random.Generator, time_scale: float = 1.0
) -> int:
    """Sample an action duration in hours (Binomial, scaled, min 1)."""
    hours = rng.binomial(spec.time_n, spec.time_p)
    return max(1, math.ceil(hours / time_scale))


@dataclass(frozen=True)
class APTActionRequest:
    """An attacker decision: run ``atype`` from ``source`` on ``target``.

    ``target_node`` / ``target_vlan`` / ``target_plc`` are mutually
    exclusive; which one applies depends on the action type.
    """

    atype: APTActionType
    source: int
    target_node: int | None = None
    target_vlan: str | None = None
    target_plc: int | None = None

    def target_key(self) -> tuple:
        return (self.atype, self.target_node, self.target_vlan, self.target_plc)


@dataclass
class APTKnowledge:
    """What the attacker has learned about the network.

    The APT has full knowledge of nodes under its control (Section 3.1
    appendix); everything else must be discovered. ``known_vlan``
    records where a node was when last scanned -- if the defender moved
    it (quarantine), actions against the stale location fail until the
    node is re-scanned.
    """

    scanned_vlans: set[str] = field(default_factory=set)
    discovered_vlans: set[str] = field(default_factory=set)
    discovered_servers: set[int] = field(default_factory=set)
    discovered_plcs: set[int] = field(default_factory=set)
    known_vlan: dict[int, str] = field(default_factory=dict)
    historian_analyzed: bool = False
    historian_analysis_started: bool = False


class APTView:
    """Read-only view handed to attacker policies each decision step.

    The underlying state is frozen for the duration of one attacker
    decision, so the controlled-node queries are memoized per view.
    A plain ``__slots__`` class rather than a dataclass: one view is
    built per attacker consult, which makes construction cost part of
    the per-step budget.
    """

    __slots__ = (
        "t", "state", "knowledge", "topology", "labor_available",
        "in_flight", "_key_set", "_controlled", "_controlled_by_level",
        "_controlled_hmis",
    )

    def __init__(
        self,
        t: int,
        state: NetworkState,
        knowledge: APTKnowledge,
        topology: Topology,
        labor_available: int,
        in_flight: list[APTActionRequest],
        key_set=None,
    ):
        self.t = t
        self.state = state
        self.knowledge = knowledge
        self.topology = topology
        self.labor_available = labor_available
        self.in_flight = in_flight
        #: optional precomputed target keys (any set-like supporting
        #: membership and iteration), e.g. the engine's live tally
        self._key_set = key_set
        self._controlled: list[int] | None = None
        self._controlled_by_level: dict[int, list[int]] = {}
        self._controlled_hmis: list[int] | None = None

    def controlled_nodes(self) -> list[int]:
        """Nodes the APT has command and control on, excluding quarantined
        nodes it cannot currently reach."""
        if self._controlled is None:
            self._controlled = self.state.reachable_compromised()
        return self._controlled

    def controlled_in_level(self, level: int) -> list[int]:
        cached = self._controlled_by_level.get(level)
        if cached is None:
            levels = self.topology.node_levels
            cached = [i for i in self.controlled_nodes() if levels[i] == level]
            self._controlled_by_level[level] = cached
        return cached

    def controlled_hmis(self) -> list[int]:
        """Controlled nodes that are HMIs (memoized per view; used by
        both phase criteria and sub-policies within one decision)."""
        cached = self._controlled_hmis
        if cached is None:
            hmis = self.topology.hmi_id_set
            cached = [n for n in self.controlled_nodes() if n in hmis]
            self._controlled_hmis = cached
        return cached

    def in_flight_keys(self) -> set[tuple]:
        keys = self._key_set
        if keys is None:
            keys = self._key_set = {req.target_key() for req in self.in_flight}
        return keys


def _source_ok(state: NetworkState, source: int) -> bool:
    return state.is_compromised(source) and not state.is_quarantined(source)


def _reachable(topology: Topology, state: NetworkState, source: int, vlan: str) -> bool:
    return topology.reachable(state.node_vlan[source], vlan)


def apply_apt_action(
    req: APTActionRequest,
    state: NetworkState,
    knowledge: APTKnowledge,
    topology: Topology,
    config: APTConfig,
    rng: np.random.Generator,
) -> bool:
    """Apply a completed APT action. Returns True if it took effect."""
    atype = req.atype

    if atype is APTActionType.SCAN_VLAN:
        vlan = req.target_vlan
        if not _source_ok(state, req.source) or not _reachable(topology, state, req.source, vlan):
            return False
        for node_id in topology.nodes_in_vlan(vlan, state.node_vlan):
            state.set_condition(node_id, Condition.SCANNED)
            knowledge.known_vlan[node_id] = vlan
        knowledge.scanned_vlans.add(vlan)
        return True

    if atype is APTActionType.COMPROMISE:
        target = req.target_node
        actual_vlan = state.node_vlan[target]
        if not _source_ok(state, req.source):
            return False
        if knowledge.known_vlan.get(target) != actual_vlan:
            return False  # stale location: node was moved since last scan
        if not state.has_condition(target, Condition.SCANNED):
            return False
        if not _reachable(topology, state, req.source, actual_vlan):
            return False
        return state.set_condition(target, Condition.COMPROMISED)

    if atype in (
        APTActionType.REBOOT_PERSIST,
        APTActionType.ESCALATE,
        APTActionType.CRED_PERSIST,
        APTActionType.CLEANUP,
    ):
        target = req.target_node
        if not state.is_compromised(target):
            return False
        cond = {
            APTActionType.REBOOT_PERSIST: Condition.REBOOT_PERSIST,
            APTActionType.ESCALATE: Condition.ADMIN,
            APTActionType.CRED_PERSIST: Condition.CRED_PERSIST,
            APTActionType.CLEANUP: Condition.CLEANED,
        }[atype]
        return state.set_condition(target, cond)

    if atype is APTActionType.DISCOVER_VLAN:
        if not _source_ok(state, req.source):
            return False
        knowledge.discovered_vlans.update(topology.ops_vlans())
        return True

    if atype is APTActionType.DISCOVER_SERVER:
        vlan = req.target_vlan
        if not _source_ok(state, req.source) or not _reachable(topology, state, req.source, vlan):
            return False
        for node_id in topology.nodes_in_vlan(vlan, state.node_vlan):
            if topology.nodes[node_id].is_server:
                knowledge.discovered_servers.add(node_id)
                state.set_condition(node_id, Condition.SCANNED)
                knowledge.known_vlan[node_id] = vlan
        return True

    if atype is APTActionType.ANALYZE_HISTORIAN:
        historian = topology.server(ServerRole.HISTORIAN)
        if historian is None:
            return False
        if not state.has_condition(historian.node_id, Condition.ADMIN):
            return False
        knowledge.historian_analyzed = True
        return True

    if atype is APTActionType.DISCOVER_PLC:
        vlan = req.target_vlan
        if not _source_ok(state, req.source) or not _reachable(topology, state, req.source, vlan):
            return False
        undiscovered = [
            p.plc_id for p in topology.plcs
            if p.vlan == vlan and p.plc_id not in knowledge.discovered_plcs
        ]
        if not undiscovered:
            return True
        k = min(config.plcs_per_discovery, len(undiscovered))
        chosen = rng.choice(len(undiscovered), size=k, replace=False)
        knowledge.discovered_plcs.update(undiscovered[int(i)] for i in chosen)
        return True

    if atype in (
        APTActionType.FLASH_FIRMWARE,
        APTActionType.DISRUPT_PLC,
        APTActionType.DESTROY_PLC,
    ):
        plc_id = req.target_plc
        plc = topology.plcs[plc_id]
        if not _source_ok(state, req.source):
            return False
        if not state.has_condition(req.source, Condition.ADMIN):
            return False
        if not _reachable(topology, state, req.source, plc.vlan):
            return False
        if state.plc_destroyed[plc_id]:
            return False
        if atype is APTActionType.FLASH_FIRMWARE:
            state.set_plc(plc_id, firmware=True)
            return True
        if atype is APTActionType.DISRUPT_PLC:
            state.set_plc(plc_id, disrupted=True)
            return True
        # DESTROY_PLC: destruction requires previously flashed firmware
        if not state.plc_firmware[plc_id]:
            return False
        state.set_plc(plc_id, destroyed=True)
        return True

    raise ValueError(f"unhandled APT action {atype}")  # pragma: no cover
