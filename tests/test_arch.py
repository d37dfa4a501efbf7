"""Architecture-description tests."""

import pytest

from repro.arch import AMPERE, HOPPER, VOLTA, architecture, registered
from repro.sim.plan import _runner_for
from tests.sim.reference_oracle import semantics_for


class TestRegistry:
    def test_lookup(self):
        assert architecture("volta") is VOLTA
        assert architecture("ampere") is AMPERE
        assert architecture("hopper") is HOPPER

    def test_aliases(self):
        assert architecture("sm70") is VOLTA
        assert architecture("sm86") is AMPERE
        assert architecture("sm80") is AMPERE
        assert architecture("sm90") is HOPPER

    def test_registered_enumerates_canonical_names(self):
        names = list(registered())
        assert set(names) >= {"volta", "ampere", "hopper"}
        # Aliases resolve but are not enumerated twice.
        assert len(names) == len(set(names))
        assert "sm86" not in names

    def test_unknown_raises_keyerror(self):
        with pytest.raises(KeyError):
            architecture("kepler")


class TestArchitectures:
    def test_sm_versions(self):
        assert VOLTA.sm == 70
        assert AMPERE.sm == 86
        assert HOPPER.sm == 90

    def test_published_specs(self):
        assert VOLTA.num_sms == 80
        assert VOLTA.tensor_fp16_tflops == 125.0
        assert VOLTA.dram_gbps == 900.0
        assert AMPERE.num_sms == 84
        assert AMPERE.dram_gbps == 768.0
        assert HOPPER.num_sms == 132
        assert HOPPER.dram_gbps > AMPERE.dram_gbps

    def test_immutable(self):
        with pytest.raises(AttributeError):
            AMPERE.num_sms = 1


class TestCapabilities:
    def test_generation_capability_tokens(self):
        assert VOLTA.supports("tensor_core")
        assert not VOLTA.supports("cp_async")
        assert AMPERE.supports("cp_async")
        assert AMPERE.supports("ldmatrix")
        for feature in ("tma", "wgmma", "fp8", "sparse_24"):
            assert HOPPER.supports(feature), feature
            assert not AMPERE.supports(feature), feature
            assert not VOLTA.supports(feature), feature

    def test_unknown_feature_is_false_not_error(self):
        assert not HOPPER.supports("quantum_annealing")


class TestInstructionSets:
    def test_generation_specific_instructions(self):
        """Paper Section 4: quad-pairs came with Volta and vanished;
        ldmatrix/cp.async came with Turing/Ampere.  No built-in
        hierarchies — each table simply lists different atomics."""
        assert VOLTA.supports("mma.884")
        assert not VOLTA.supports("mma.16816")
        assert not VOLTA.supports("ldmatrix.x4")
        assert AMPERE.supports("mma.16816")
        assert AMPERE.supports("ldmatrix.x4")
        assert not AMPERE.supports("mma.884")
        assert HOPPER.supports("wgmma.64.64.16.f16")
        assert HOPPER.supports("tma.g2s.fp16")
        assert not AMPERE.supports("wgmma.64.64.16.f16")

    def test_shared_atomics(self):
        for arch in (VOLTA, AMPERE, HOPPER):
            assert arch.supports("hfma")
            assert arch.supports("shfl.bfly")
            assert arch.supports("move.thread.generic")

    def test_atomic_lookup(self):
        atomic = AMPERE.atomic("mma.16816")
        assert "m16n8k16" in atomic.instruction
        with pytest.raises(KeyError):
            AMPERE.atomic("nope")

    def test_tables_end_with_generic_fallback(self):
        for arch in (VOLTA, AMPERE, HOPPER):
            assert arch.atomics[-1].name == "move.thread.generic"

    def test_every_atomic_has_simulator_semantics(self):
        """Every atomic compiles to a vectorized plan runner, and the
        per-lane reference oracle has scalar semantics for it."""
        for arch in (VOLTA, AMPERE, HOPPER):
            for atomic in arch.atomics:
                runner, _ = _runner_for(atomic)
                assert callable(runner), atomic.name
                assert semantics_for(atomic) is not None, atomic.name
