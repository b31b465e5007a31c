"""repro — a full reproduction of PADE (HPCA 2026).

PADE is a predictor-free sparse attention accelerator built on bit-serial
stage fusion.  This package provides:

* :mod:`repro.core` — the paper's algorithms (BUI-GF, BS-OOE, ISTA), the
  end-to-end :func:`repro.core.pade_attention` operator, and the pluggable
  kernel-backend registry (:mod:`repro.core.backend`).
* :mod:`repro.engine` — the batched multi-head serving layer: persistent
  bit-plane KV caches, head-batched filter rounds, request scheduling.
* :mod:`repro.quant` — INT/MXINT quantization and bit-plane decomposition.
* :mod:`repro.attention` — dense / FlashAttention references and software
  sparse-attention baselines.
* :mod:`repro.model` — transformer workload substrate (model presets,
  synthetic attention generators, proxy accuracy tasks).
* :mod:`repro.sim` — cycle-approximate simulator of the PADE accelerator
  (HBM2, PE lanes, scoreboard, GSAT, RARS, V-PU) + energy/area models.
* :mod:`repro.accelerators` — analytic models of the compared designs
  (dense ASIC, Sanger, SpAtten, Energon, DOTA, SOFA, BitWave, H100 GPU).
* :mod:`repro.eval` — the experiment harness regenerating every table and
  figure of the paper's evaluation section.

Importing the package starts OpenBLAS with one thread unless
``OPENBLAS_NUM_THREADS`` is already set: the kernels issue exact
single-threaded gemvs (:func:`repro.core.bsf_fast.plane_products`), and
an idle pool only costs start-up time (DESIGN.md §13).  The setting
takes effect only when numpy has not been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro._lazy import lazy_exports  # noqa: E402
from repro.core import PadeConfig  # noqa: E402

__version__ = "1.0.0"

__all__ = ["PadeConfig", "pade_attention", "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), {"pade_attention": "core"})
