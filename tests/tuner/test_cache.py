"""Tuning-cache tests: roundtrip, key sensitivity, corruption recovery."""

import json
import os

import pytest

from repro.tuner.cache import TuningCache

pytestmark = pytest.mark.tuner


ENTRY = {
    "family": "gemm",
    "label": "block_tile=128x128x32",
    "params": {"block_tile": [128, 128, 32], "warp_grid": [2, 2],
               "swizzle": True, "stages": 1},
    "score_us": 855.6,
    "launches": 1,
}


class TestRoundtrip:
    def test_put_get_same_process(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        key = TuningCache.make_key("gemm", {"m": 256, "n": 256, "k": 128},
                                   "fp16", "ampere")
        assert cache.get(key) is None
        cache.put(key, ENTRY)
        assert cache.get(key) == ENTRY
        assert key in cache
        assert len(cache) == 1

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        key = TuningCache.make_key("gemm", {"m": 256, "n": 256, "k": 128},
                                   "fp16", "ampere")
        TuningCache(path).put(key, ENTRY)
        reloaded = TuningCache(path)
        assert reloaded.get(key) == ENTRY

    def test_get_returns_copy(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        cache.put("k", ENTRY)
        got = cache.get("k")
        got["params"]["block_tile"][0] = 999
        assert cache.get("k")["params"]["block_tile"][0] == 128

    def test_in_memory_without_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = TuningCache(None)
        cache.put("k", ENTRY)
        assert cache.get("k") == ENTRY
        assert list(tmp_path.iterdir()) == []  # nothing written to disk


class TestKeySensitivity:
    BASE = dict(family="gemm", shape={"m": 256, "n": 256, "k": 128},
                dtype="fp16", arch="ampere")

    def _key(self, **overrides):
        args = dict(self.BASE)
        args.update(overrides)
        return TuningCache.make_key(args["family"], args["shape"],
                                    args["dtype"], args["arch"])

    def test_key_is_deterministic_in_shape_order(self):
        a = TuningCache.make_key("gemm", {"m": 1, "n": 2, "k": 3},
                                 "fp16", "ampere")
        b = TuningCache.make_key("gemm", {"k": 3, "n": 2, "m": 1},
                                 "fp16", "ampere")
        assert a == b

    def test_shape_changes_key(self):
        assert self._key() != self._key(shape={"m": 512, "n": 256, "k": 128})

    def test_dtype_changes_key(self):
        assert self._key() != self._key(dtype="fp32")

    def test_arch_changes_key(self):
        assert self._key() != self._key(arch="volta")

    def test_family_changes_key(self):
        assert self._key() != self._key(family="mlp")


class TestLayoutTaggedKeys:
    """Layout-aware keys canonicalize through the F2 engine: spelling
    the same physical layout differently must not fragment the cache."""

    def _key(self, layout=None, swizzle=None):
        return TuningCache.make_key(
            "gemm", {"m": 256, "n": 256, "k": 128}, "fp16", "ampere",
            layout=layout, swizzle=swizzle)

    def test_no_layout_keeps_plain_key(self):
        assert "|layout=" not in self._key()

    def test_equivalent_spellings_share_a_key(self):
        from repro.layout import Layout
        flat = self._key(Layout((8, 4), (4, 1)))
        nested = self._key(Layout(((2, 4), 4), ((4, 8), 1)))
        assert "|layout=" in flat
        assert flat == nested

    def test_permuted_spelling_changes_key(self):
        from repro.layout import Layout
        assert self._key(Layout((8, 4), (4, 1))) != \
            self._key(Layout((8, 4), (1, 8)))

    def test_biting_swizzle_changes_key(self):
        from repro.layout import Layout
        from repro.layout.swizzle import Swizzle
        layout = Layout((8, 8), (8, 1))
        assert self._key(layout, Swizzle(1, 3, 2)) != self._key(layout)
        # A swizzle sourcing bits beyond the 64-element domain is a
        # no-op and must collapse onto the plain-layout key.
        assert self._key(layout, Swizzle(1, 3, 3)) == self._key(layout)

    def test_non_pow2_layout_still_keys_stably(self):
        from repro.layout import Layout
        odd = Layout((3, 5), (5, 1))
        assert self._key(odd) == self._key(odd)
        assert "|layout=raw" in self._key(odd)


class TestCorruptionRecovery:
    def test_garbage_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json at all")
        cache = TuningCache(path)
        assert cache.recovered_from_corruption
        assert len(cache) == 0
        assert cache.get("anything") is None

    def test_wrong_schema_degrades_to_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        cache = TuningCache(path)
        assert cache.recovered_from_corruption
        assert len(cache) == 0

    def test_put_after_corruption_rewrites_valid_file(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("garbage")
        cache = TuningCache(path)
        cache.put("k", ENTRY)
        reloaded = TuningCache(path)
        assert not reloaded.recovered_from_corruption
        assert reloaded.get("k") == ENTRY


class TestStats:
    def test_hit_miss_counters_persist_on_close(self, tmp_path):
        path = tmp_path / "cache.json"
        with TuningCache(path) as cache:
            cache.get("missing")
            cache.put("k", ENTRY)
            cache.get("k")
            assert cache.stats == {"hits": 1, "misses": 1, "invalid": 0,
                                   "entries": 1}
        reloaded = TuningCache(path)
        assert reloaded.hits == 1
        assert reloaded.misses == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        for i in range(5):
            cache.put(f"k{i}", ENTRY)
        leftovers = [p for p in os.listdir(tmp_path)
                     if p != "cache.json"]
        assert leftovers == []
