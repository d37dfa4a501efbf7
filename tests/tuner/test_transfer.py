"""Cross-shape transfer: nearest-neighbour seeding must only ever help.

Three properties anchor this file:

* ``nearest_entries`` is deterministic (insertion-order independent)
  and built on a symmetric distance;
* at equal beam width, a seeded search explores a superset of the cold
  search's candidates, so its winner is never worse;
* ``tune(transfer=True)`` falls back to the cold path whenever the
  seeds are useless (empty cache, stale params, illegal group) — and
  says so via ``TuningResult.transferred``.
"""

import pytest

from repro.tuner import (
    TuningCache, get_space, resolve_arch, tune,
)
from repro.tuner.cache import key_distance, parse_key
from repro.tuner.search import beam_search, exhaustive_search

from .conftest import tiny_gemm_space

pytestmark = pytest.mark.tuner

ARCH = resolve_arch("ampere")


def _key(family, shape, space):
    return TuningCache.make_key(family, space.validate_shape(shape),
                                space.dtype, ARCH.name)


class TestNearestEntries:
    def _seed_cache(self, cache, space, shapes):
        for shape in shapes:
            key = _key("gemm", shape, space)
            winner = space.default(space.validate_shape(shape), ARCH)
            cache.put(key, {"family": "gemm", "label": winner.label,
                            "params": winner.json_params(),
                            "score_us": 1.0, "launches": 1})

    def test_orders_by_log_distance(self, tiny_space):
        cache = TuningCache(None)
        self._seed_cache(cache, tiny_space, [
            {"m": 1024, "n": 512, "k": 128},   # distance 1.0
            {"m": 4096, "n": 512, "k": 128},   # distance 3.0
            {"m": 1024, "n": 1024, "k": 128},  # distance ~1.41
        ])
        target = _key("gemm", {"m": 512, "n": 512, "k": 128}, tiny_space)
        got = cache.nearest_entries(target, k=3)
        assert [round(d, 2) for _, _, d in got] == [1.0, 1.41, 3.0]

    def test_insertion_order_irrelevant(self, tiny_space, rng):
        shapes = [{"m": m, "n": n, "k": 128}
                  for m in (512, 1024, 2048) for n in (512, 1024)]
        target = _key("gemm", {"m": 256, "n": 256, "k": 128}, tiny_space)
        boards = []
        for _ in range(3):
            rng.shuffle(shapes)
            cache = TuningCache(None)
            self._seed_cache(cache, tiny_space, shapes)
            boards.append([(k, d) for k, _, d in
                           cache.nearest_entries(target, k=4)])
        assert boards[0] == boards[1] == boards[2]

    def test_exact_key_and_foreign_families_excluded(self, tiny_space):
        cache = TuningCache(None)
        self._seed_cache(cache, tiny_space, [{"m": 512, "n": 512, "k": 128}])
        ln_space = get_space("layernorm")
        ln_key = _key("layernorm", {"rows": 512, "hidden": 512}, ln_space)
        cache.put(ln_key, {"family": "layernorm", "params": {}, "label": "x",
                           "score_us": 1.0, "launches": 1})
        exact = _key("gemm", {"m": 512, "n": 512, "k": 128}, tiny_space)
        assert cache.nearest_entries(exact, k=5) == []
        assert cache.nearest_entries(ln_key, k=5) == []

    def test_distance_symmetric_over_fuzzed_shapes(self, shapes):
        for _ in range(50):
            sa, sb = shapes.ampere_gemm(), shapes.ampere_gemm()
            a = parse_key(_key("gemm", {k: sa[k] for k in "mnk"},
                               tiny_gemm_space()))
            b = parse_key(_key("gemm", {k: sb[k] for k in "mnk"},
                               tiny_gemm_space()))
            assert key_distance(a, b) == key_distance(b, a)
            assert key_distance(a, a) == 0.0


class TestSeededBeam:
    def test_seeded_never_worse_at_equal_beam_fuzzed(self, shapes):
        """Property: seeds expand the survivor set, never shrink it."""
        space = tiny_gemm_space()
        for _ in range(8):
            drawn = shapes.ampere_gemm()
            shape = {"m": drawn["m"] * 4, "n": drawn["n"] * 8,
                     "k": drawn["k"] * 2}
            legal = list(space.candidates(shape, ARCH))
            if not legal:
                continue
            cold = beam_search(space, shape, ARCH, beam=1)
            for seed in {space.coarse_key(c): c for c in legal}.values():
                seeded = beam_search(space, shape, ARCH, beam=1,
                                     seeds=[seed])
                assert (seeded.best.score_seconds
                        <= cold.best.score_seconds)
                assert seeded.evaluated >= cold.evaluated

    def test_beam_zero_expands_only_seed_groups(self, tiny_space):
        shape = {"m": 256, "n": 256, "k": 128}
        legal = list(tiny_space.candidates(shape, ARCH))
        seed = legal[0]
        result = beam_search(tiny_space, shape, ARCH, beam=0, seeds=[seed])
        want = tiny_space.coarse_key(seed)
        assert result.ranked  # the seed group ranked
        assert all(tiny_space.coarse_key(rc.candidate) == want
                   for rc in result.ranked)
        assert result.seeded_from == [seed.label]
        # Full space minus the expanded group was pruned, not evaluated.
        assert result.evaluated < len(legal)

    def test_beam_zero_without_legal_seed_raises(self, tiny_space):
        shape = {"m": 256, "n": 256, "k": 128}
        with pytest.raises(ValueError, match="transfer seed"):
            beam_search(tiny_space, shape, ARCH, beam=0, seeds=[])


class TestTuneTransfer:
    def test_neighbour_reuses_anchor_winner(self, tiny_space):
        cache = TuningCache(None)
        anchor = tune("gemm", {"m": 256, "n": 256, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1)
        follow = tune("gemm", {"m": 512, "n": 256, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1, transfer=True)
        assert not anchor.transferred
        assert follow.transferred
        assert follow.seeded_from  # the anchor's winner seeded it
        assert follow.gate_results and follow.gate_results[0].passed
        # Seeding pruned most of the space.
        assert follow.search_stats["evaluated"] < \
            anchor.search_stats["evaluated"]

    def test_cold_cache_falls_back_silently(self, tiny_space):
        result = tune("gemm", {"m": 256, "n": 256, "k": 128}, ARCH,
                      space=tiny_space, cache=TuningCache(None),
                      search="exhaustive", top_k=1, transfer=True)
        assert not result.transferred
        assert result.seeded_from == []

    def test_illegal_seed_group_falls_back_to_cold(self, tiny_space):
        """A cached 128x128 winner cannot seed a shape where only the
        64x64 tile divides: tune() must cold-search, not fail."""
        cache = TuningCache(None)
        big = next(c for c in tiny_space.candidates(
            {"m": 256, "n": 256, "k": 128}, ARCH)
            if c.params["block_tile"] == (128, 128, 32))
        cache.put(_key("gemm", {"m": 256, "n": 256, "k": 128}, tiny_space),
                  {"family": "gemm", "label": big.label,
                   "params": big.json_params(), "score_us": 1.0,
                   "launches": 1})
        result = tune("gemm", {"m": 192, "n": 192, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1, transfer=True)
        assert not result.transferred
        assert result.winner.params["block_tile"] == (64, 64, 32)

    def test_stale_seed_params_ignored(self, tiny_space):
        cache = TuningCache(None)
        cache.put(_key("gemm", {"m": 256, "n": 256, "k": 128}, tiny_space),
                  {"family": "gemm", "label": "bogus",
                   "params": {"no_such_knob": 7}, "score_us": 1.0,
                   "launches": 1})
        result = tune("gemm", {"m": 512, "n": 512, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1, transfer=True)
        assert not result.transferred
        assert result.gate_results[0].passed

    @pytest.mark.parametrize("params", [
        "not a dict", None,
        pytest.param({"no_such_knob": 7}, id="unknown knob"),
        pytest.param({"block_tile": "not a tile", "warp_grid": [2, 2],
                      "swizzle": False, "stages": 1}, id="mistyped knob"),
    ])
    def test_malformed_neighbour_counted_invalid(self, tiny_space, params):
        """A neighbour whose params cannot seed a search counts once in
        ``TuningCache.invalid``; hits and misses move only for the
        tune's own lookup, and the tune still gates a winner."""
        cache = TuningCache(None)
        anchor = tune("gemm", {"m": 256, "n": 256, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1)
        entry = cache.get(anchor.cache_key)
        entry["params"] = params
        cache.put(anchor.cache_key, entry)
        before = cache.stats
        result = tune("gemm", {"m": 512, "n": 256, "k": 128}, ARCH,
                      space=tiny_space, cache=cache, search="exhaustive",
                      top_k=1, transfer=True)
        after = cache.stats
        assert after["invalid"] == before["invalid"] + 1
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 1
        assert not result.transferred
        assert result.gate_results and result.gate_results[0].passed
