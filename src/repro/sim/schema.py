"""Field names of the structured step-info record.

One step info carries eight scalars and a
:class:`~repro.sim.reward.RewardBreakdown`. Two consumers lay them out
as fixed-width records: the worker wire format
(:mod:`repro.sim.vec_transport` packs them, in this order, into its
``_INFO_FIXED`` struct) and the trace store
(:mod:`repro.validation.tracestore` builds its columnar record dtype
from these names). Keeping the names here lets the on-disk log follow
the engine's info without depending on the IPC layer.
"""

from __future__ import annotations

__all__ = ["INFO_SCALAR_FIELDS", "BREAKDOWN_FIELDS"]

#: the scalar step-info fields, in record order (``t`` is an int64,
#: ``it_cost`` a float64, the six tallies int64)
INFO_SCALAR_FIELDS = (
    "t",
    "it_cost",
    "n_compromised",
    "n_ws_compromised",
    "n_srv_compromised",
    "n_plcs_offline",
    "n_plcs_disrupted",
    "n_plcs_destroyed",
)

#: :class:`~repro.sim.reward.RewardBreakdown` fields in record order
#: (five float64s)
BREAKDOWN_FIELDS = ("r_plc", "r_it", "r_term", "total", "it_cost")
