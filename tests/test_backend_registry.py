"""Kernel-backend registry: resolution rules + reference↔fast parity.

The parity block is the property-style sweep of ISSUE 1 satellite 3: random
seeds, ``allowed``/``protect`` masks, all-pruned rows, and infinite-guard
edge cases, always comparing every :class:`~repro.core.bsf.BSFResult` field
across both registered backends *via the registry* (never by importing a
concrete kernel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PadeConfig, pade_attention
from repro.core.backend import (
    DEFAULT_BACKEND_ENV,
    FastBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
)
from repro.core.bui_gf import guard_in_int_units
from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import quantize_symmetric


@pytest.fixture(autouse=True)
def _clean_default():
    """Each test starts from an unset session default."""
    previous = set_default_backend(None)
    yield
    set_default_backend(previous)


def _problem(seed: int, num_rows: int = 6, num_keys: int = 96, head_dim: int = 24):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(num_rows, head_dim)) * rng.uniform(0.5, 3.0)
    k = rng.normal(size=(num_keys, head_dim))
    qi = quantize_symmetric(q)
    ki = quantize_symmetric(k)
    planes = decompose_bitplanes(ki.data)
    scale = float(qi.scale) * float(ki.scale) / np.sqrt(head_dim)
    return qi.data, planes, scale


def _assert_identical(a, b):
    assert np.array_equal(a.retained, b.retained)
    assert np.array_equal(a.planes_processed, b.planes_processed)
    assert np.array_equal(a.scores, b.scores)
    assert a.bit_plane_loads == b.bit_plane_loads
    assert a.effective_bit_ops == b.effective_bit_ops
    assert a.naive_bit_ops == b.naive_bit_ops


class TestRegistry:
    def test_shipped_backends_listed(self):
        assert {"reference", "fast"} <= set(available_backends())

    def test_default_resolution_chain(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_BACKEND_ENV, raising=False)
        assert resolve_backend_name() == "fast"
        monkeypatch.setenv(DEFAULT_BACKEND_ENV, "reference")
        assert resolve_backend_name() == "reference"
        set_default_backend("fast")  # session default beats env var
        assert resolve_backend_name() == "fast"
        assert resolve_backend_name("reference") == "reference"  # explicit wins

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(KeyError, match="reference"):
            get_backend("no-such-backend")
        with pytest.raises(KeyError):
            set_default_backend("no-such-backend")

    def test_get_backend_passes_instances_through(self):
        backend = FastBackend()
        assert get_backend(backend) is backend

    def test_reregistration_guarded(self):
        with pytest.raises(ValueError):
            register_backend(FastBackend())
        register_backend(FastBackend(), overwrite=True)  # explicit override ok

    def test_config_backend_flows_through_pade_attention(self):
        rng = np.random.default_rng(0)
        q, k, v = rng.normal(size=(4, 16)), rng.normal(size=(64, 16)), rng.normal(size=(64, 16))
        ref = pade_attention(q, k, v, PadeConfig(backend="reference"))
        fast = pade_attention(q, k, v, PadeConfig(backend="fast"))
        assert np.array_equal(ref.retained, fast.retained)
        np.testing.assert_allclose(ref.output, fast.output)

    def test_config_rejects_nothing_lazily(self):
        # An unknown name fails at resolution time, not config construction.
        cfg = PadeConfig(backend="bogus")
        rng = np.random.default_rng(1)
        with pytest.raises(KeyError):
            pade_attention(
                rng.normal(size=(2, 8)), rng.normal(size=(16, 8)),
                rng.normal(size=(16, 8)), cfg,
            )


class TestBackendParity:
    """reference and fast must agree bit for bit on every BSFResult field."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_problems(self, seed):
        q, planes, scale = _problem(seed)
        guard = guard_in_int_units(0.6, 5.0, scale)
        ref = get_backend("reference").filter(q, planes, guard)
        fast = get_backend("fast").filter(q, planes, guard)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shared_masks", [True, False])
    def test_allowed_and_protect_masks(self, seed, shared_masks):
        q, planes, scale = _problem(seed + 100)
        num_rows, num_keys = q.shape[0], planes.value_shape[0]
        rng = np.random.default_rng(seed + 17)
        shape = (num_keys,) if shared_masks else (num_rows, num_keys)
        allowed = rng.random(shape) < 0.7
        protect = (rng.random(shape) < 0.1) & allowed
        guard = guard_in_int_units(0.5, 5.0, scale)
        ref = get_backend("reference").filter(q, planes, guard, allowed=allowed, protect=protect)
        fast = get_backend("fast").filter(q, planes, guard, allowed=allowed, protect=protect)
        _assert_identical(ref, fast)
        # Protected candidates must be retained by both.
        full_protect = np.broadcast_to(protect, ref.retained.shape)
        assert ref.retained[full_protect].all()

    @pytest.mark.parametrize("seed", range(4))
    def test_all_pruned_rows(self, seed):
        # A zero guard with rows whose candidates are far below the max
        # prunes entire rows; both backends must agree on the empty sets.
        q, planes, scale = _problem(seed + 200, num_rows=4)
        ref = get_backend("reference").filter(q, planes, 0.0)
        fast = get_backend("fast").filter(q, planes, 0.0)
        _assert_identical(ref, fast)

    def test_empty_allowed_rows(self):
        q, planes, scale = _problem(7)
        allowed = np.zeros((q.shape[0], planes.value_shape[0]), dtype=bool)
        allowed[0, :5] = True  # one row has candidates, the rest none
        guard = guard_in_int_units(0.6, 5.0, scale)
        ref = get_backend("reference").filter(q, planes, guard, allowed=allowed)
        fast = get_backend("fast").filter(q, planes, guard, allowed=allowed)
        _assert_identical(ref, fast)
        assert not ref.retained[1:].any()
        assert (ref.planes_processed[1:] == 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_infinite_guard_retains_everything(self, seed):
        q, planes, _ = _problem(seed + 300)
        ref = get_backend("reference").filter(q, planes, float("inf"))
        fast = get_backend("fast").filter(q, planes, float("inf"))
        _assert_identical(ref, fast)
        assert ref.retained.all()
        assert (ref.planes_processed == planes.bits).all()

    @pytest.mark.parametrize("name", ["reference", "fast"])
    def test_negative_guards_rejected_at_the_boundary(self, name):
        """Every filter entry point of both backends refuses a negative or
        NaN guard (the engine's ``alpha · radius / scale`` is never
        negative, and on a NaN guard the two kernels would disagree)."""
        backend = get_backend(name)
        q, planes, _ = _problem(11, num_rows=2, num_keys=16)
        q3, planes3 = q[None], decompose_bitplanes(planes.ints[None])
        for bad in (-1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=">= 0"):
                backend.filter(q, planes, bad)
            with pytest.raises(ValueError, match=">= 0"):
                backend.filter_row(q[0], planes, bad)
            with pytest.raises(ValueError, match=">= 0"):
                backend.filter_heads(q3, planes3, np.array([bad]))
            with pytest.raises(ValueError, match=">= 0"):
                backend.filter_heads_batch(
                    [q3, q3], [planes3, planes3], [np.array([1.0]), np.array([bad])]
                )
        # Zero and infinite guards stay valid.
        backend.filter(q, planes, 0.0)
        backend.filter_heads_batch([q3], [planes3], [np.array([np.inf])])

    @pytest.mark.parametrize("seed", range(4))
    def test_filter_heads_parity(self, seed):
        rng = np.random.default_rng(seed + 400)
        num_heads, num_rows, num_keys, head_dim = 3, 2, 48, 16
        q = rng.normal(size=(num_heads, num_rows, head_dim))
        k = rng.normal(size=(num_heads, num_keys, head_dim))
        qi = [quantize_symmetric(q[h]) for h in range(num_heads)]
        ki = [quantize_symmetric(k[h]) for h in range(num_heads)]
        planes = decompose_bitplanes(np.stack([x.data for x in ki]))
        guards = np.array(
            [
                guard_in_int_units(
                    0.6, 5.0, float(qi[h].scale) * float(ki[h].scale) / np.sqrt(head_dim)
                )
                for h in range(num_heads)
            ]
        )
        q3 = np.stack([x.data for x in qi])
        protect = rng.random((num_heads, num_rows, num_keys)) < 0.05
        ref = get_backend("reference").filter_heads(q3, planes, guards, protect=protect)
        fast = get_backend("fast").filter_heads(q3, planes, guards, protect=protect)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("seed", range(3))
    def test_heads_kernel_matches_per_head_fast(self, seed):
        """The 3D kernel is exactly a stacked per-head fast filter."""
        rng = np.random.default_rng(seed + 500)
        num_heads, num_rows, num_keys, head_dim = 2, 3, 40, 12
        fast = get_backend("fast")
        q3 = rng.integers(-50, 50, size=(num_heads, num_rows, head_dim))
        k3 = rng.integers(-64, 63, size=(num_heads, num_keys, head_dim))
        planes = decompose_bitplanes(k3)
        guards = np.array([150.0, 90.0])
        batched = fast.filter_heads(q3, planes, guards)
        for h in range(num_heads):
            from repro.quant.bitplane import BitPlanes

            single = fast.filter(
                q3[h], BitPlanes(planes=planes.planes[:, h], bits=planes.bits), guards[h]
            )
            assert np.array_equal(batched.retained[h], single.retained)
            assert np.array_equal(batched.scores[h], single.scores)
            assert np.array_equal(batched.planes_processed[h], single.planes_processed)
