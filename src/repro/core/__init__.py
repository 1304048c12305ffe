"""HCPerf core — the paper's primary contribution.

* :mod:`repro.core.ade` — Algebraic Differentiation Estimation (Eq. 6);
* :mod:`repro.core.mfc` — Model-Free Control performance-directed
  controller (Eqs. 2–5);
* :mod:`repro.core.dynamic_priority` — dynamic priority ``P_i = γ·p_i + d_i``
  with the Eq. (11) γ_max search and Eq. (12) clamp;
* :mod:`repro.core.rate_adapter` — Task Rate Adapter (Eq. 13);
* :mod:`repro.core.coordinator` — the hierarchical façade tying the internal
  and external coordinators together.
"""

from .ade import AlgebraicDifferentiator
from .coordinator import HCPerfConfig, HierarchicalCoordinator
from .dynamic_priority import (
    DynamicPriorityConfig,
    DynamicPriorityPolicy,
    GammaSearchResult,
)
from .mfc import MFCConfig, ModelFreeController
from .rate_adapter import RateAdapterConfig, TaskRateAdapter

__all__ = [
    "AlgebraicDifferentiator",
    "HCPerfConfig",
    "HierarchicalCoordinator",
    "DynamicPriorityConfig",
    "DynamicPriorityPolicy",
    "GammaSearchResult",
    "MFCConfig",
    "ModelFreeController",
    "RateAdapterConfig",
    "TaskRateAdapter",
]
