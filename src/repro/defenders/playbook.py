"""The security-automation playbook baseline (Section 5.1, Fig 9).

Fixed courses of action (COAs) triggered by alerts. A COA alternates
scans with mitigations: scan the node; on detection apply the next
mitigation in the escalation ladder (reboot, then password reset, then
re-image) and scan again. Per the paper, a COA terminates "when no
more alerts are generated for the node": a clean scan ends the COA only
if the node has stayed alert-quiet since the scan was launched --
otherwise the playbook keeps scanning. Severity-3 alerts start with a
human analysis (highest detection probability) instead of a background
scan. Observable PLC problems are handled immediately (reset when
disrupted, replace when destroyed).

Each node runs at most one COA at a time; COAs on different nodes run
concurrently -- the paper notes this baseline is *more* automated than
most production playbooks, which defer to human analysts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.defenders.base import DefenderPolicy
from repro.sim.observations import Observation
from repro.sim.orchestrator import (
    DEFENDER_ACTION_SPECS,
    DefenderAction,
    DefenderActionType,
)

__all__ = ["PlaybookPolicy"]

_T = DefenderActionType

#: mitigation escalation ladder applied between scans
_MITIGATION_LADDER = (_T.REBOOT, _T.RESET_PASSWORD, _T.REIMAGE)


class _Stage(enum.Enum):
    SCANNING = "scanning"
    MITIGATING = "mitigating"


@dataclass
class _Coa:
    """Per-node course-of-action progress."""

    stage: _Stage = _Stage.SCANNING
    ladder_pos: int = 0  # next mitigation to apply on detection
    scan_type: DefenderActionType = _T.SIMPLE_SCAN
    waiting_until: int = -1  # hour the in-flight action should complete by
    in_flight: DefenderActionType | None = None
    last_alert_t: int = 0  # most recent alert seen for this node
    scan_started_t: int = 0  # when the current scan was launched
    clean_streak: int = 0  # consecutive clean scans while alerts continue


class PlaybookPolicy(DefenderPolicy):
    name = "playbook"

    def __init__(self, server_scan: DefenderActionType = _T.ADVANCED_SCAN):
        self.server_scan = server_scan
        self._coas: dict[int, _Coa] = {}
        self._is_server: np.ndarray = np.zeros(0, bool)

    def reset(self, env) -> None:
        self._coas = {}
        self._is_server = np.array([n.is_server for n in env.topology.nodes])

    # ------------------------------------------------------------------
    def act(self, obs: Observation) -> list[DefenderAction]:
        actions: list[DefenderAction] = []
        self._note_alerts(obs)
        self._process_completions(obs)
        actions.extend(self._advance_coas(obs))
        actions.extend(self._handle_plcs(obs))
        return actions

    # ------------------------------------------------------------------
    def _scan_for(self, node_id: int, severity: int) -> DefenderActionType:
        if severity >= 3:
            return _T.HUMAN_ANALYSIS
        if severity >= 2 or self._is_server[node_id]:
            return self.server_scan
        return _T.SIMPLE_SCAN

    def _note_alerts(self, obs: Observation) -> None:
        """Start COAs on newly alerted nodes; refresh active ones."""
        for alert in obs.alerts:
            node_id = alert.node_id
            if node_id is None:
                continue
            coa = self._coas.get(node_id)
            if coa is None:
                self._coas[node_id] = _Coa(
                    scan_type=self._scan_for(node_id, alert.severity),
                    last_alert_t=obs.t,
                    scan_started_t=obs.t,
                )
            else:
                coa.last_alert_t = obs.t
                if alert.severity >= 3:
                    coa.scan_type = _T.HUMAN_ANALYSIS

    def _process_completions(self, obs: Observation) -> None:
        completed_mitigations = {
            a.target for a in obs.completed_actions
            if a.atype in _MITIGATION_LADDER and a.target in self._coas
        }
        for node_id in completed_mitigations:
            coa = self._coas[node_id]
            coa.stage = _Stage.SCANNING
            coa.in_flight = None

        for result in obs.scan_results:
            coa = self._coas.get(result.node_id)
            if coa is None or coa.stage is not _Stage.SCANNING:
                continue
            coa.in_flight = None
            if result.detected:
                coa.clean_streak = 0
                if coa.ladder_pos >= len(_MITIGATION_LADDER):
                    # ladder exhausted yet still detecting: re-image again
                    coa.ladder_pos = len(_MITIGATION_LADDER) - 1
                coa.stage = _Stage.MITIGATING
            elif coa.last_alert_t <= coa.scan_started_t:
                # clean scan and no alert since the scan began: terminate
                del self._coas[result.node_id]
            else:
                # clean scan but alerts keep coming: escalate the scan
                # depth (background scan -> disruptive scan -> analyst)
                coa.clean_streak += 1
                if coa.clean_streak >= 4:
                    coa.scan_type = _T.HUMAN_ANALYSIS
                elif coa.clean_streak >= 2 and coa.scan_type is _T.SIMPLE_SCAN:
                    coa.scan_type = _T.ADVANCED_SCAN

    def _advance_coas(self, obs: Observation) -> list[DefenderAction]:
        actions = []
        for node_id, coa in list(self._coas.items()):
            if coa.in_flight is not None:
                if obs.t <= coa.waiting_until:
                    continue
                coa.in_flight = None  # launch was rejected; retry below
            if obs.node_busy[node_id]:
                continue
            if coa.stage is _Stage.SCANNING:
                atype = coa.scan_type
                coa.scan_started_t = obs.t
            else:
                atype = _MITIGATION_LADDER[
                    min(coa.ladder_pos, len(_MITIGATION_LADDER) - 1)
                ]
                coa.ladder_pos += 1
            coa.in_flight = atype
            coa.waiting_until = obs.t + DEFENDER_ACTION_SPECS[atype].duration + 1
            actions.append(DefenderAction(atype, node_id))
        return actions

    def _handle_plcs(self, obs: Observation) -> list[DefenderAction]:
        # plain-Python reads of the short PLC vectors: on most steps no
        # PLC is down, and this returns before any numpy work
        if not (any(obs.plc_disrupted.tolist())
                or any(obs.plc_destroyed.tolist())):
            return []
        actions = []
        for plc_id in np.flatnonzero(obs.plc_destroyed):
            if not obs.plc_busy[plc_id]:
                actions.append(DefenderAction(_T.REPLACE_PLC, int(plc_id)))
        for plc_id in np.flatnonzero(obs.plc_disrupted & ~obs.plc_destroyed):
            if not obs.plc_busy[plc_id]:
                actions.append(DefenderAction(_T.RESET_PLC, int(plc_id)))
        return actions
