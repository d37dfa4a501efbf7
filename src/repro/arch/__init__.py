"""GPU architectures: atomic-spec tables and hardware parameters.

Architectures live in a capability-declaring registry: modules call
:func:`register` at import time, consumers look targets up with
:func:`architecture` and select features through
:meth:`Architecture.supports` (``"tma"``, ``"wgmma"``, ``"fp8"``,
``"sparse_24"``, ...) instead of comparing architecture names.  Adding a
new GPU generation is a registration, not a grep.
"""

from .ampere import AMPERE
from .gpu import Architecture, architecture, register, registered
from .hopper import HOPPER
from .volta import VOLTA


__all__ = [
    "AMPERE", "HOPPER", "VOLTA", "Architecture", "architecture",
    "register", "registered",
]
