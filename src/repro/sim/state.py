"""Dynamic network state: node compromise conditions and PLC status.

Conditions are stored as a boolean matrix (nodes x conditions) so the
DBN filter, reward module, and shaping potential can read counts with
vectorized operations. The prerequisite chain of Table 1 is enforced on
every write.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.net.nodes import CONDITION_PREREQS, Condition, NodeType
from repro.net.topology import Topology

__all__ = ["NetworkState"]


class NetworkState:
    def __init__(self, topology: Topology):
        self.topology = topology
        n, m = topology.n_nodes, topology.n_plcs
        self.t = 0
        #: bumped by every mutator method (conditions, VLAN moves, PLC
        #: flags); caching consumers (FSMAttacker's phase, the batched
        #: engine's observation snapshots) compare it to notice a change
        self.version = 0
        self.conditions = np.zeros((n, len(Condition)), dtype=bool)
        self.node_vlan: list[str] = [node.home_vlan for node in topology.nodes]
        self._home_vlan: list[str] = list(self.node_vlan)
        #: boolean mirror of "node is off its home VLAN", kept in sync by
        #: :meth:`move_node` so hot paths avoid per-node string compares
        self.quarantined = np.zeros(n, dtype=bool)
        self.plc_firmware = np.zeros(m, dtype=bool)
        self.plc_disrupted = np.zeros(m, dtype=bool)
        self.plc_destroyed = np.zeros(m, dtype=bool)
        #: hour until which a defender action occupies each node / PLC
        self.node_busy_until = np.zeros(n, dtype=np.int64)
        self.plc_busy_until = np.zeros(m, dtype=np.int64)
        self._is_server = np.array(
            [node.ntype is NodeType.SERVER for node in topology.nodes]
        )
        # incremental compromise bookkeeping: every COMPROMISED write goes
        # through set_condition/clear_node, so the sorted id list, the
        # membership set, and the server tally stay exact and O(1) to read
        self._comp_ids: list[int] = []
        self._comp_set: set[int] = set()
        self._comp_arr: np.ndarray | None = None
        self._n_srv_comp = 0
        self._quar_set: set[int] = set()

    # ------------------------------------------------------------------
    # condition manipulation
    # ------------------------------------------------------------------
    def set_condition(self, node_id: int, cond: Condition) -> bool:
        """Set a compromise condition if its Table 1 prerequisite holds."""
        prereq = CONDITION_PREREQS[cond]
        if prereq is not None and not self.conditions[node_id, prereq]:
            return False
        self.version += 1
        self.conditions[node_id, cond] = True
        if cond is Condition.COMPROMISED and node_id not in self._comp_set:
            insort(self._comp_ids, node_id)
            self._comp_set.add(node_id)
            self._comp_arr = None
            if self._is_server[node_id]:
                self._n_srv_comp += 1
        return True

    def has_condition(self, node_id: int, cond: Condition) -> bool:
        return bool(self.conditions[node_id, cond])

    def clear_node(self, node_id: int) -> None:
        """Return a node to nominal (all compromise conditions removed)."""
        self.version += 1
        self.conditions[node_id, :] = False
        if node_id in self._comp_set:
            self._comp_set.discard(node_id)
            self._comp_ids.remove(node_id)
            self._comp_arr = None
            if self._is_server[node_id]:
                self._n_srv_comp -= 1

    def is_compromised(self, node_id: int) -> bool:
        return bool(self.conditions[node_id, Condition.COMPROMISED])

    def is_quarantined(self, node_id: int) -> bool:
        return bool(self.quarantined[node_id])

    def move_node(self, node_id: int, vlan: str) -> None:
        if vlan not in self.topology.vlans:
            raise KeyError(f"unknown VLAN {vlan!r}")
        self.version += 1
        self.node_vlan[node_id] = vlan
        off_home = vlan != self._home_vlan[node_id]
        self.quarantined[node_id] = off_home
        if off_home:
            self._quar_set.add(node_id)
        else:
            self._quar_set.discard(node_id)

    def set_plc(
        self,
        plc_id: int,
        *,
        firmware: bool | None = None,
        disrupted: bool | None = None,
        destroyed: bool | None = None,
    ) -> bool:
        """Write the given PLC status flags (``None`` leaves a flag as it
        is). Returns True when any flag changed value."""
        self.version += 1
        changed = False
        for flags, value in (
            (self.plc_firmware, firmware),
            (self.plc_disrupted, disrupted),
            (self.plc_destroyed, destroyed),
        ):
            if value is not None and flags[plc_id] != value:
                flags[plc_id] = value
                changed = True
        return changed

    # ------------------------------------------------------------------
    # busy bookkeeping (one defender action per node / PLC at a time)
    # ------------------------------------------------------------------
    def node_busy(self, node_id: int) -> bool:
        return bool(self.node_busy_until[node_id] > self.t)

    def plc_busy(self, plc_id: int) -> bool:
        return bool(self.plc_busy_until[plc_id] > self.t)

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def compromised_mask(self) -> np.ndarray:
        return self.conditions[:, Condition.COMPROMISED].copy()

    def compromised_ids(self) -> np.ndarray:
        """Ascending ids of compromised nodes (cached between writes)."""
        arr = self._comp_arr
        if arr is None:
            arr = self._comp_arr = np.array(self._comp_ids, dtype=np.intp)
        return arr

    def reachable_compromised(self) -> list[int]:
        """Ascending compromised node ids the APT can still reach."""
        if not self._quar_set:
            return list(self._comp_ids)
        quarantined = self._quar_set
        return [i for i in self._comp_ids if i not in quarantined]

    def has_reachable_compromise(self) -> bool:
        """True while at least one compromised node is unquarantined."""
        return not self._comp_set <= self._quar_set

    def n_compromised(self) -> int:
        return len(self._comp_ids)

    def n_workstations_compromised(self) -> int:
        return len(self._comp_ids) - self._n_srv_comp

    def n_servers_compromised(self) -> int:
        return self._n_srv_comp

    def n_plcs_disrupted(self) -> int:
        """Disrupted but not destroyed (destruction subsumes disruption)."""
        return int((self.plc_disrupted & ~self.plc_destroyed).sum())

    def n_plcs_destroyed(self) -> int:
        return int(self.plc_destroyed.sum())

    def n_plcs_offline(self) -> int:
        # plain-Python counting: PLC arrays are a handful of elements,
        # and this runs inside the attacker's per-step criteria walk
        destroyed = self.plc_destroyed.tolist()
        return sum(
            1 for p, d in zip(self.plc_disrupted.tolist(), destroyed) if p or d
        )

    def snapshot(self) -> dict:
        """Ground-truth snapshot used for logging and DBN learning."""
        return {
            "t": self.t,
            "conditions": self.conditions.copy(),
            "node_vlan": list(self.node_vlan),
            "plc_disrupted": self.plc_disrupted.copy(),
            "plc_destroyed": self.plc_destroyed.copy(),
            "plc_firmware": self.plc_firmware.copy(),
        }
