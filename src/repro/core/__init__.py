"""Core PADE algorithms: the paper's primary contribution.

* :mod:`repro.core.bui` — bit-wise uncertainty intervals (paper Eq. 2-3).
* :mod:`repro.core.bui_gf` — BUI-enabled guarded filtering (Eq. 4, Fig. 7).
* :mod:`repro.core.bs` — bidirectional bit sparsity (Eq. 5-6).
* :mod:`repro.core.bsf` — the bit-serial stage-fusion loop that unifies
  sparsity prediction and execution (Fig. 4b), with per-token early
  termination and full statistics.
* :mod:`repro.core.ista` — interleaving-based sparsity-tiled attention
  (Fig. 10c) with head-tail interleaved tile updating.
* :mod:`repro.core.mx` — BUI generalized to the MXINT group format (Fig. 25).
* :mod:`repro.core.pade_attention` — the end-to-end functional attention
  operator a downstream user calls.
* :mod:`repro.core.backend` — the pluggable kernel-backend registry
  (``"reference"`` / ``"fast"``) every layer dispatches the fused filter
  through; see also :mod:`repro.engine` for the batched serving layer.

The ISTA, MX, multi-bit, FP-query, validation and end-to-end operator
names resolve on first use, so a server loads none of those modules.
"""

from repro._lazy import lazy_exports
from repro.core.config import PadeConfig
from repro.core.bui import BUILookupTable, build_bui_lut, uncertainty_interval
from repro.core.bui_gf import GuardedFilter, PruneDecision
from repro.core.bs import BidirectionalPlan, plan_plane, bs_partial_dot, effective_bits
from repro.core.bsf import BSFResult, bsf_filter_row, bsf_filter
from repro.core.bsf_fast import bsf_filter_fast_batch
from repro.core.backend import (
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
)

#: Re-exports no server calls: public name -> submodule that defines it,
#: resolved on first use (PEP 562).
_EXPORTS = {
    "ISTAResult": "ista",
    "ista_attention": "ista",
    "head_tail_order": "ista",
    "MXBUILookupTable": "mx",
    "build_mx_bui_lut": "mx",
    "PadeAttentionResult": "pade_attention",
    "pade_attention": "pade_attention",
    "MultiBitResult": "multibit",
    "multibit_filter": "multibit",
    "multibit_filter_row": "multibit",
    "AlignedQuery": "fp_query",
    "align_query": "fp_query",
    "fp_bsf_filter_row": "fp_query",
    "ValidationReport": "validate",
    "validate_partial_scores": "validate",
    "validate_retention": "validate",
}

__all__ = [
    "PadeConfig",
    "BUILookupTable",
    "build_bui_lut",
    "uncertainty_interval",
    "GuardedFilter",
    "PruneDecision",
    "BidirectionalPlan",
    "plan_plane",
    "bs_partial_dot",
    "effective_bits",
    "BSFResult",
    "bsf_filter_row",
    "bsf_filter",
    "bsf_filter_fast_batch",
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_default_backend",
    *_EXPORTS,
]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
