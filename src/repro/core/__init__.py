"""HCPerf core — the paper's primary contribution.

* :mod:`repro.core.ade` — Algebraic Differentiation Estimation (Eq. 6);
* :mod:`repro.core.mfc` — Model-Free Control performance-directed
  controller (Eqs. 2–5);
* :mod:`repro.core.dynamic_priority` — dynamic priority ``P_i = γ·p_i + d_i``
  with the Eq. (11) γ_max search and Eq. (12) clamp;
* :mod:`repro.core.rate_adapter` — Task Rate Adapter (Eq. 13).

:class:`~repro.schedulers.hcperf.HCPerfScheduler` owns one of each and runs
them as the paper's two coordinators (Fig. 6): the MFC and the dynamic
priority scheduler are the internal one, the rate adapter the external one.
"""

from .ade import AlgebraicDifferentiator
from .dynamic_priority import (
    DynamicPriorityConfig,
    DynamicPriorityPolicy,
    GammaSearchResult,
)
from .mfc import MFCConfig, ModelFreeController
from .rate_adapter import RateAdapterConfig, TaskRateAdapter

__all__ = [
    "AlgebraicDifferentiator",
    "DynamicPriorityConfig",
    "DynamicPriorityPolicy",
    "GammaSearchResult",
    "MFCConfig",
    "ModelFreeController",
    "RateAdapterConfig",
    "TaskRateAdapter",
]
