"""End-to-end ``tune()`` and CLI smoke tests on a tiny GEMM space."""

import pytest

from repro.arch import AMPERE
from repro.kernels.gemm_optimized import build_ampere_tc_gemm
from repro.tuner import TuningError, resolve_arch, tune
from repro.tuner.__main__ import main
from repro.tuner.cache import TuningCache
from repro.tuner.search import perfmodel_oracle

from .conftest import TINY_SHAPE

pytestmark = pytest.mark.tuner


class TestTuneSmoke:
    def test_tune_returns_verified_winner(self, tiny_space):
        result = tune("gemm", TINY_SHAPE, "sm86", space=tiny_space,
                      cache=False)
        assert result.winner.params["swizzle"] is True
        assert result.cost is not None
        assert result.search_stats["total_candidates"] <= 8
        assert any(g.passed for g in result.gate_results)
        kernel = result.build_kernel()
        assert kernel.name

    def test_cache_roundtrip_skips_search(self, tiny_space, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        first = tune("gemm", TINY_SHAPE, "sm86", space=tiny_space,
                     cache=cache)
        assert not first.cache_hit
        assert cache.misses == 1

        second = tune("gemm", TINY_SHAPE, "sm86", space=tiny_space,
                      cache=cache)
        assert second.cache_hit
        assert second.search_stats is None  # no search re-run
        assert second.winner == first.winner
        assert cache.hits == 1

    def test_force_retunes_despite_cache(self, tiny_space, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        tune("gemm", TINY_SHAPE, "sm86", space=tiny_space, cache=cache)
        forced = tune("gemm", TINY_SHAPE, "sm86", space=tiny_space,
                      cache=cache, force=True)
        assert not forced.cache_hit
        assert forced.search_stats is not None

    def test_build_kernel_builds_full_scale_kernel(self, tiny_space):
        kernel = tune("gemm", {"m": 256, "n": 256, "k": 128}, "sm86",
                      space=tiny_space, cache=False).build_kernel()
        assert kernel.name == "graphene_gemm_sm86"

    def test_winner_not_worse_than_default_on_tiny_space(self, tiny_space):
        result = tune("gemm", TINY_SHAPE, "sm86", space=tiny_space,
                      cache=False)
        default = build_ampere_tc_gemm(
            TINY_SHAPE["m"], TINY_SHAPE["n"], TINY_SHAPE["k"],
            block_tile=(128, 128, 32), warp_grid=(2, 2),
        )
        default_cost = perfmodel_oracle(default, AMPERE)
        assert result.score_seconds <= default_cost.time_seconds

    def test_arch_aliases_resolve(self):
        assert resolve_arch("sm86").sm == 86
        assert resolve_arch("volta").sm == 70
        with pytest.raises(TuningError, match="unknown architecture"):
            resolve_arch("sm999")


class TestCacheValidation:
    """A cache entry is used only when it is well formed and names a
    candidate of the space; any other entry is a miss that re-tunes and
    overwrites it."""

    SHAPE = {"rows": 512, "cols": 64}

    def _retune_after(self, tmp_path, **fields):
        cache = TuningCache(tmp_path / "cache.json")
        first = tune("softmax", self.SHAPE, "ampere", cache=cache)
        entry = cache.get(first.cache_key)
        entry.update(fields)
        for name, value in fields.items():
            if value is None:
                del entry[name]
        cache.put(first.cache_key, entry)
        before = cache.stats
        again = tune("softmax", self.SHAPE, "ampere", cache=cache)
        assert not again.cache_hit
        assert again.search_stats is not None
        assert cache.invalid == before["invalid"] + 1
        assert cache.misses == before["misses"] + 1
        assert cache.hits == before["hits"]
        served = tune("softmax", self.SHAPE, "ampere", cache=cache)
        assert served.cache_hit
        assert served.winner == again.winner == first.winner
        assert served.score_seconds == pytest.approx(first.score_seconds)
        return served

    def test_entry_without_params_retunes(self, tmp_path):
        self._retune_after(tmp_path, params=None)

    def test_string_score_retunes(self, tmp_path):
        self._retune_after(tmp_path, score_us="fast")

    def test_hand_edited_params_retune(self, tmp_path):
        served = self._retune_after(tmp_path,
                                    params={"threads_per_block": 7})
        assert served.winner.params["threads_per_block"] != 7


class TestCli:
    ARGS = ["gemm", "--arch", "sm86", "--m", "256", "--n", "256",
            "--k", "128", "--block-tiles", "64x64x32,128x128x32"]

    def test_cli_prints_leaderboard_and_caches(self, tmp_path, capsys):
        cache_arg = ["--cache", str(tmp_path / "cli_cache.json")]
        assert main(self.ARGS + cache_arg) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "verified in repro.sim" in out
        assert "swizzle=on" in out

        assert main(self.ARGS + cache_arg) == 0
        out = capsys.readouterr().out
        assert "served from tuning cache" in out
        assert "1 hits" in out

    def test_cli_no_cache(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out

    def test_cli_reports_bad_shape(self, capsys):
        assert main(["gemm", "--m", "97", "--n", "97", "--k", "97",
                     "--no-cache"]) == 1
        assert "tuning failed" in capsys.readouterr().err


@pytest.mark.slow
class TestFullSpaceAcceptance:
    """The ISSUE acceptance criterion, on the paper's Fig 9 shape."""

    def test_fig9_ampere_winner_not_worse_than_handwritten(self):
        m, n, k = 5376, 5376, 2048
        result = tune("gemm", {"m": m, "n": n, "k": k}, "sm86", cache=False)
        default = build_ampere_tc_gemm(m, n, k, block_tile=(128, 128, 32),
                                       warp_grid=(2, 2))
        default_cost = perfmodel_oracle(default, AMPERE)
        assert result.score_seconds <= default_cost.time_seconds
        assert result.cost.smem_bank_conflicts <= \
            default_cost.smem_bank_conflicts
        assert any(g.passed for g in result.gate_results)
