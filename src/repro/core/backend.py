"""Pluggable kernel-backend registry for the fused BSF filter.

The repository ships two functionally identical implementations of the
bit-serial stage-fusion filter: the Python-loop reference
(:func:`repro.core.bsf.bsf_filter`) and the round-vectorized fast path
(:func:`repro.core.bsf_fast.bsf_filter_fast_batch`, which every fast
entry point reshapes into).  Callers used to hand-pick
one by importing it directly; this module puts both behind a single
:class:`KernelBackend` interface so the choice becomes configuration:

* ``PadeConfig.backend`` — per-config selection, flows through
  :func:`repro.core.pade_attention.pade_attention`, ISTA and the simulator;
* ``REPRO_BACKEND`` environment variable — process-wide default;
* :func:`set_default_backend` — session override (the CLI ``--backend``
  flag and the engine use this).

Resolution precedence: explicit name > :func:`set_default_backend` >
``$REPRO_BACKEND`` > ``"fast"``.  Both shipped backends produce identical
:class:`~repro.core.bsf.BSFResult` fields (DESIGN.md §8 invariant), so the
selection only affects speed; third-party backends register via
:func:`register_backend`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from repro.core.bsf import BSFResult, BSFRowResult, bsf_filter, bsf_filter_row
from repro.core.bsf_fast import bsf_filter_fast_batch
from repro.core.bui import BUILookupTable
from repro.core.bui_gf import GuardedFilter
from repro.quant.bitplane import BitPlanes

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "set_default_backend",
    "DEFAULT_BACKEND_ENV",
]

#: Environment variable consulted when no explicit backend is requested.
DEFAULT_BACKEND_ENV = "REPRO_BACKEND"

#: Fallback when neither config, session default, nor env var chooses.
_FALLBACK = "fast"


def _check_guards(*guards) -> None:
    """Reject negative and NaN guards at the backend boundary.

    The engine's guards are ``alpha · radius / scale`` with ``alpha`` in
    ``[0, 1]`` and ``radius >= 0``, and the filter's bounds assume a
    threshold at or below the best lower bound, so a negative guard is
    always a caller bug (it would prune every unprotected key in round 0).
    A NaN guard is one too, and the backends would disagree on it: the
    reference threshold compares false everywhere while the fast kernel
    treats a non-finite guard as "keep everything".

    One compare covers every guard of the call; only a failure (or guards
    of mixed shapes) walks them one by one to name the offender.
    """
    try:
        if (np.asarray(guards, dtype=np.float64) >= 0).all():
            return
    except ValueError:  # mixed shapes, e.g. a scalar next to per-head vectors
        pass
    for guard in guards:
        if not np.all(np.asarray(guard, dtype=np.float64) >= 0):
            raise ValueError(f"filter guards must be >= 0, got {guard!r}")


@runtime_checkable
class KernelBackend(Protocol):
    """One implementation of the fused predict/execute filter.

    A backend must expose the three entry points the stack dispatches on:
    the batched filter (prefill-style blocks), the stateful row filter
    (ISTA's streaming observation windows), and the head-batched filter
    (the engine's multi-head decode rounds).  All backends must return
    bit-identical :class:`BSFResult` fields for the same inputs — only the
    loop structure may differ.

    ``filter_heads_batch`` is the cross-request fused round the engine
    dispatches at every decode round; the reference backend implements it
    as a per-request ``filter_heads`` loop, the fast backend as its one
    kernel, which ``filter`` and ``filter_heads`` reshape into.
    """

    name: str

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult: ...

    def filter_row(
        self,
        q_row: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        lut: Optional[BUILookupTable] = None,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
        gfilter: Optional[GuardedFilter] = None,
    ) -> BSFRowResult: ...

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult: ...

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]: ...


class ReferenceBackend:
    """The Python-loop reference kernels (row-at-a-time semantics)."""

    name = "reference"

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        _check_guards(guard)
        return bsf_filter(q_int, key_planes, guard, allowed=allowed, protect=protect)

    def filter_row(
        self,
        q_row: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        lut: Optional[BUILookupTable] = None,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
        gfilter: Optional[GuardedFilter] = None,
    ) -> BSFRowResult:
        _check_guards(guard)
        return bsf_filter_row(
            q_row, key_planes, guard, lut=lut, allowed=allowed, protect=protect, gfilter=gfilter
        )

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        """Head loop over the batched reference filter (stacked results)."""
        _check_guards(guards)
        q = np.asarray(q_int, dtype=np.int64)
        num_heads, num_rows, _ = q.shape
        num_keys = key_planes.value_shape[1]
        guards = np.broadcast_to(np.asarray(guards, dtype=np.float64), (num_heads,))

        def head_mask(mask: Optional[np.ndarray], h: int) -> Optional[np.ndarray]:
            if mask is None:
                return None
            arr = np.asarray(mask, dtype=bool)
            return arr[h] if arr.ndim == 3 else arr

        retained = np.zeros((num_heads, num_rows, num_keys), dtype=bool)
        planes = np.zeros((num_heads, num_rows, num_keys), dtype=np.int64)
        scores = np.zeros((num_heads, num_rows, num_keys), dtype=np.int64)
        loads = ops = naive = 0
        for h in range(num_heads):
            head_planes = BitPlanes(planes=key_planes.planes[:, h], bits=key_planes.bits)
            res = self.filter(
                q[h], head_planes, float(guards[h]),
                allowed=head_mask(allowed, h), protect=head_mask(protect, h),
            )
            retained[h] = res.retained
            planes[h] = res.planes_processed
            scores[h] = res.scores
            loads += res.bit_plane_loads
            ops += res.effective_bit_ops
            naive += res.naive_bit_ops
        return BSFResult(
            retained=retained,
            planes_processed=planes,
            scores=scores,
            bit_plane_loads=loads,
            effective_bit_ops=ops,
            naive_bit_ops=naive,
        )

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]:
        """Per-request loop over :meth:`filter_heads` (the semantic ground
        truth the fused fast kernel must match bit for bit)."""
        _check_guards(*guards)
        num = len(key_planes)
        if alloweds is None:
            alloweds = [None] * num
        if protects is None:
            protects = [None] * num
        return [
            self.filter_heads(q_ints[i], key_planes[i], guards[i],
                              allowed=alloweds[i], protect=protects[i])
            for i in range(num)
        ]


class FastBackend(ReferenceBackend):
    """The round-vectorized kernel :func:`bsf_filter_fast_batch`.

    ``filter`` and ``filter_heads`` are one-request reshapes into it; they
    call the module function, not :meth:`filter_heads_batch`, so a tracer
    wrapping the methods sees one span per call.  ``filter_row`` is
    inherited from the reference backend: ISTA's streaming windows carry
    an externally owned :class:`GuardedFilter` across calls, and the row
    kernel is already vectorized over keys within each round.
    """

    name = "fast"

    def filter(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guard: float,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        _check_guards(guard)
        q = np.atleast_2d(np.asarray(q_int, dtype=np.int64))
        one_head = BitPlanes(
            ints=key_planes.ints[None], popcounts=key_planes.popcounts[:, None],
            bits=key_planes.bits,
        )
        res = bsf_filter_fast_batch(
            [q[None]], [one_head], [guard], alloweds=[allowed], protects=[protect]
        )[0]
        return replace(
            res, retained=res.retained[0], planes_processed=res.planes_processed[0],
            scores=res.scores[0],
        )

    def filter_heads(
        self,
        q_int: np.ndarray,
        key_planes: BitPlanes,
        guards: np.ndarray,
        allowed: Optional[np.ndarray] = None,
        protect: Optional[np.ndarray] = None,
    ) -> BSFResult:
        _check_guards(guards)
        return bsf_filter_fast_batch(
            [q_int], [key_planes], [guards], alloweds=[allowed], protects=[protect]
        )[0]

    def filter_heads_batch(
        self,
        q_ints: Sequence[np.ndarray],
        key_planes: Sequence[BitPlanes],
        guards: Sequence[np.ndarray],
        alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
        protects: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[BSFResult]:
        _check_guards(*guards)
        return bsf_filter_fast_batch(
            q_ints, key_planes, guards, alloweds=alloweds, protects=protects
        )


_REGISTRY: Dict[str, KernelBackend] = {}
_session_default: Optional[str] = None


def register_backend(backend: KernelBackend, overwrite: bool = False) -> KernelBackend:
    """Add a backend to the registry under ``backend.name``.

    Registering an existing name requires ``overwrite=True`` so a typo
    cannot silently shadow a shipped backend.
    """
    name = backend.name
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered (pass overwrite=True)")
    _REGISTRY[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Apply the precedence chain and return the effective backend name."""
    if name is not None:
        return name
    if _session_default is not None:
        return _session_default
    return os.environ.get(DEFAULT_BACKEND_ENV) or _FALLBACK


def get_backend(name: Optional[Union[str, KernelBackend]] = None) -> KernelBackend:
    """Look up a backend; ``None`` resolves via the precedence chain.

    Accepts an already-constructed :class:`KernelBackend` and returns it
    unchanged, so call sites can take ``str | KernelBackend | None``.
    """
    if name is not None and not isinstance(name, str):
        return name
    resolved = resolve_backend_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown kernel backend {resolved!r}; available: {known}") from None


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the session-wide default backend.

    Returns the previous session default so callers can restore it.  The
    name is validated eagerly so a bad ``--backend`` fails at parse time,
    not deep inside a figure function.
    """
    global _session_default
    if name is not None and name not in _REGISTRY:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown kernel backend {name!r}; available: {known}")
    previous = _session_default
    _session_default = name
    return previous


register_backend(ReferenceBackend())
register_backend(FastBackend())
