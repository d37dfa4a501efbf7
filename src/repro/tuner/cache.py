"""Persistent tuning cache: tune once, serve every later run instantly.

The cache is one JSON file keyed by ``(kernel family, problem shape,
dtype, architecture)``.  Writes are atomic (temp file + ``os.replace``)
so a crashed or concurrent run can never leave a half-written file; a
corrupted or unreadable file degrades to an empty cache (the caller
re-tunes and the next put rewrites it).  Hit/miss counters persist in
the file itself, so cache effectiveness is visible across processes.

Persistence is *deferred*: lookups only mutate in-memory state and set
a dirty flag; the file is written on :meth:`TuningCache.put` and
:meth:`TuningCache.flush`/:meth:`TuningCache.close` (the cache is also
a context manager).  A read-heavy tuning session therefore performs at
most one write — earlier revisions rewrote the whole file on every
``get``, which made cache lookups the slowest part of a warm run.

Beyond exact lookups, the cache supports *cross-shape transfer*:
:meth:`TuningCache.nearest_entries` parses the canonical keys back into
structured ``(family, shape, dtype, arch)`` records and returns the
cached winners of the nearest neighbouring shapes, which the tuner uses
to seed beam search instead of cold-searching every new problem.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Environment override for the default on-disk location.
CACHE_ENV_VAR = "GRAPHENE_TUNER_CACHE"
DEFAULT_CACHE_FILENAME = ".graphene_tuner_cache.json"

_SCHEMA_VERSION = 1


def default_cache_path() -> str:
    return os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_FILENAME)


@dataclass(frozen=True)
class ParsedKey:
    """One cache key parsed back into its structured components."""

    family: str
    shape: Dict[str, int]
    dtype: str
    arch: str
    layout: Optional[str] = None

    @property
    def shape_axes(self) -> Tuple[str, ...]:
        return tuple(sorted(self.shape))


def parse_key(key: str) -> Optional[ParsedKey]:
    """Parse a :meth:`TuningCache.make_key` string; None if malformed."""
    parts = key.split("|")
    if len(parts) < 4:
        return None
    family, dims, dtype, arch = parts[0], parts[1], parts[2], parts[3]
    if not dtype.startswith("dtype=") or not arch.startswith("arch="):
        return None
    layout = None
    if len(parts) >= 5:
        if not parts[4].startswith("layout="):
            return None
        layout = parts[4][len("layout="):]
    shape: Dict[str, int] = {}
    if dims:
        for item in dims.split(","):
            name, _, value = item.partition("=")
            try:
                shape[name] = int(value)
            except ValueError:
                return None
    return ParsedKey(family=family, shape=shape,
                     dtype=dtype[len("dtype="):], arch=arch[len("arch="):],
                     layout=layout)


def key_distance(a: ParsedKey, b: ParsedKey) -> Optional[float]:
    """Shape distance between two comparable tuning problems.

    Euclidean distance in log2 space over the shared shape axes —
    doubling any one dimension costs 1.0 regardless of its absolute
    magnitude, so ``(m=512, k=64)`` is as near to ``(m=1024, k=64)`` as
    ``(m=4096, k=64)`` is to ``(m=8192, k=64)``.  Symmetric by
    construction.  Returns ``None`` for problems that are not
    transferable at all: different family/dtype/arch/layout or
    different shape axes.
    """
    if (a.family != b.family or a.dtype != b.dtype or a.arch != b.arch
            or a.layout != b.layout or a.shape_axes != b.shape_axes):
        return None
    total = 0.0
    for axis in a.shape_axes:
        va, vb = a.shape[axis], b.shape[axis]
        if va <= 0 or vb <= 0:
            return None
        total += (math.log2(va) - math.log2(vb)) ** 2
    return math.sqrt(total)


class TuningCache:
    """JSON-backed map from tuning keys to winning configurations.

    ``path=None`` keeps the cache purely in memory (used by the figure
    benches, which must not touch the filesystem).  Usable as a context
    manager; :meth:`close` flushes deferred stats updates.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = os.fspath(path) if path is not None else None
        self.recovered_from_corruption = False
        self._data = self._load()
        self._dirty = False

    # -- keys ---------------------------------------------------------------
    @staticmethod
    def make_key(family: str, shape: Dict[str, int], dtype: str,
                 arch: str, layout=None, swizzle=None) -> str:
        """The cache key for one tuning problem.

        ``layout`` (a :class:`~repro.layout.layout.Layout`, optionally
        with a ``swizzle``) describes a problem whose operand layout is
        part of its identity — e.g. tuning against a pre-swizzled or
        custom-strided input.  It is keyed by *canonical form*
        (:func:`repro.layout.linear.canonical_layout_tag`), so two
        callers spelling the same physical layout differently (nested
        vs flat modes, coalesced runs, equivalent swizzles) share one
        entry instead of re-tuning.
        """
        dims = ",".join(f"{k}={shape[k]}" for k in sorted(shape))
        key = f"{family}|{dims}|dtype={dtype}|arch={arch}"
        if layout is not None:
            from ..layout.linear import canonical_layout_tag
            from ..layout.swizzle import IDENTITY_SWIZZLE
            tag = canonical_layout_tag(layout, swizzle or IDENTITY_SWIZZLE)
            key += f"|layout={tag}"
        return key

    # -- persistence --------------------------------------------------------
    def _empty(self) -> Dict:
        return {
            "version": _SCHEMA_VERSION,
            "stats": {"hits": 0, "misses": 0, "invalid": 0},
            "entries": {},
        }

    def _load(self) -> Dict:
        if self.path is None or not os.path.exists(self.path):
            return self._empty()
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if (
                not isinstance(data, dict)
                or data.get("version") != _SCHEMA_VERSION
                or not isinstance(data.get("entries"), dict)
                or not isinstance(data.get("stats"), dict)
            ):
                raise ValueError("unrecognised cache schema")
            data["stats"].setdefault("hits", 0)
            data["stats"].setdefault("misses", 0)
            data["stats"].setdefault("invalid", 0)
            return data
        except (OSError, ValueError) as _:
            # json.JSONDecodeError is a ValueError: fall back to an
            # empty cache, re-tune, and overwrite the broken file.
            self.recovered_from_corruption = True
            return self._empty()

    def _write(self) -> None:
        if self.path is None:
            self._dirty = False
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=".graphene_tuner_", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._data, fh, indent=1, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._dirty = False

    def flush(self) -> None:
        """Persist deferred state (hit/miss stats); no-op when clean."""
        if self._dirty:
            self._write()

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "TuningCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def dirty(self) -> bool:
        """True when in-memory state is ahead of the file."""
        return self._dirty

    # -- access -------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """Look up a tuning entry, updating in-memory hit/miss stats.

        Lookups never touch the file — the updated stats persist with
        the next :meth:`put` or :meth:`flush`.
        """
        entry = self._data["entries"].get(key)
        if entry is None:
            self._data["stats"]["misses"] += 1
        else:
            self._data["stats"]["hits"] += 1
        self._dirty = True
        return json.loads(json.dumps(entry)) if entry is not None else None

    def reject(self, key: str) -> None:
        """Drop the entry :meth:`get` just returned for ``key`` as
        invalid: the lookup counts as a miss, and the caller re-tunes."""
        del self._data["entries"][key]
        stats = self._data["stats"]
        stats["hits"] -= 1
        stats["misses"] += 1
        self.count_invalid()

    def count_invalid(self) -> None:
        """Count one malformed entry in :attr:`invalid`; a transfer
        neighbour that cannot seed a search is counted here alone."""
        self._data["stats"]["invalid"] += 1
        self._dirty = True

    def put(self, key: str, entry: Dict) -> None:
        self._data["entries"][key] = entry
        self._write()

    def clear(self) -> None:
        self._data = self._empty()
        self._write()

    # -- cross-shape transfer ------------------------------------------------
    def nearest_entries(self, key: str, k: int = 1) -> \
            List[Tuple[str, Dict, float]]:
        """The ``k`` cached problems nearest to ``key`` by shape.

        Returns ``(key, entry, distance)`` tuples sorted by ascending
        :func:`key_distance` (key string as the deterministic tiebreak),
        considering only *transferable* entries: same family, dtype,
        architecture, layout tag and shape axes, at a different shape
        (an exact-key entry is an ordinary :meth:`get` hit, not a
        transfer).  Entries whose keys fail to parse are skipped.
        """
        target = parse_key(key)
        if target is None or k <= 0:
            return []
        scored: List[Tuple[float, str, Dict]] = []
        for other_key, entry in self._data["entries"].items():
            if other_key == key:
                continue
            parsed = parse_key(other_key)
            if parsed is None:
                continue
            distance = key_distance(target, parsed)
            if distance is None:
                continue
            scored.append((distance, other_key, entry))
        scored.sort(key=lambda item: (item[0], item[1]))
        return [(other_key, json.loads(json.dumps(entry)), distance)
                for distance, other_key, entry in scored[:k]]

    # -- statistics ---------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._data["stats"]["hits"]

    @property
    def misses(self) -> int:
        return self._data["stats"]["misses"]

    @property
    def invalid(self) -> int:
        """Entries found malformed or foreign to their space (see
        :meth:`reject` and :meth:`count_invalid`)."""
        return self._data["stats"]["invalid"]

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "entries": len(self._data["entries"]),
        }

    def __len__(self) -> int:
        return len(self._data["entries"])

    def __contains__(self, key: str) -> bool:
        return key in self._data["entries"]
