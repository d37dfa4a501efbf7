"""GPU architecture descriptions and the architecture registry.

An :class:`Architecture` bundles the atomic-spec table used for matching,
simulation and code generation with the hardware parameters the
analytical performance model needs (peak throughputs, memory bandwidth,
launch overhead) and a set of *capability tokens* (``"tma"``,
``"wgmma"``, ``"fp8"``, ``"sparse_24"``, ...).

Architectures enter the system through :func:`register`; consumers look
them up with :func:`architecture` and select features by querying
:meth:`Architecture.supports` — never by comparing architecture names.
Adding a new generation is a registration, not a grep: construct the
``Architecture`` with its atomic table and capabilities and register it
under a key (plus any aliases such as ``"sm90"``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..specs.atomic import AtomicSpec


class Architecture:
    """One GPU target: atomic specs, capabilities, perf-model parameters."""

    __slots__ = (
        "name", "key", "sm", "atomics", "capabilities",
        "num_sms", "tensor_fp16_tflops", "fp32_tflops", "fp16_tflops",
        "dram_gbps", "smem_bytes_per_sm", "smem_gbps",
        "launch_overhead_us", "max_threads_per_sm",
    )

    def __init__(
        self,
        name: str,
        sm: int,
        atomics: Sequence[AtomicSpec],
        *,
        capabilities: Iterable[str] = (),
        num_sms: int,
        tensor_fp16_tflops: float,
        fp32_tflops: float,
        fp16_tflops: float,
        dram_gbps: float,
        smem_bytes_per_sm: int,
        smem_gbps: float,
        launch_overhead_us: float = 5.0,
        max_threads_per_sm: int = 2048,
    ):
        object.__setattr__(self, "name", name)
        # Canonical registry key ("ampere", "hopper", ...); assigned by
        # :func:`register`, defaults to the SM spelling until then.
        object.__setattr__(self, "key", f"sm{sm}")
        object.__setattr__(self, "sm", sm)
        object.__setattr__(self, "atomics", tuple(atomics))
        object.__setattr__(self, "capabilities", frozenset(capabilities))
        object.__setattr__(self, "num_sms", num_sms)
        object.__setattr__(self, "tensor_fp16_tflops", tensor_fp16_tflops)
        object.__setattr__(self, "fp32_tflops", fp32_tflops)
        object.__setattr__(self, "fp16_tflops", fp16_tflops)
        object.__setattr__(self, "dram_gbps", dram_gbps)
        object.__setattr__(self, "smem_bytes_per_sm", smem_bytes_per_sm)
        object.__setattr__(self, "smem_gbps", smem_gbps)
        object.__setattr__(self, "launch_overhead_us", launch_overhead_us)
        object.__setattr__(self, "max_threads_per_sm", max_threads_per_sm)

    def __setattr__(self, *a):
        raise AttributeError("Architecture is immutable")

    def __reduce__(self):
        # Architectures pickle by name and unpickle to the registry
        # singleton, so atomic tables (their predicates are lambdas)
        # never serialize.
        return (architecture, (self.name,))

    def supports(self, feature: str) -> bool:
        """Capability query: a declared token or an atomic-spec name.

        Feature selection throughout the codebase goes through this —
        ``arch.supports("tma")``, ``arch.supports("wgmma")`` — instead
        of matching architecture names.
        """
        if feature in self.capabilities:
            return True
        return any(a.name == feature for a in self.atomics)

    def atomic(self, name: str) -> AtomicSpec:
        for a in self.atomics:
            if a.name == name:
                return a
        raise KeyError(f"{self.name} has no atomic spec {name!r}")

    def __repr__(self):
        return f"Architecture({self.name}, sm{self.sm})"


#: The architecture registry: key -> Architecture, plus alias -> key.
_REGISTRY: Dict[str, Architecture] = {}
_ALIASES: Dict[str, str] = {}


def register(
    arch: Architecture,
    key: Optional[str] = None,
    aliases: Sequence[str] = (),
) -> Architecture:
    """Register an architecture under ``key`` (default: ``"sm<N>"``).

    ``aliases`` add extra lookup spellings (e.g. ``"sm86"`` for
    ``"ampere"``).  Re-registering the identical object is a no-op;
    claiming an existing key with a different object is an error.
    """
    if not isinstance(arch, Architecture):
        raise TypeError(f"register expects an Architecture, got {arch!r}")
    key = (key or f"sm{arch.sm}").lower()
    existing = _REGISTRY.get(key)
    if existing is not None and existing is not arch:
        raise ValueError(
            f"architecture key {key!r} is already registered to {existing!r}"
        )
    _REGISTRY[key] = arch
    object.__setattr__(arch, "key", key)
    for alias in aliases:
        alias = alias.lower()
        taken = _ALIASES.get(alias)
        if taken is not None and taken != key:
            raise ValueError(
                f"architecture alias {alias!r} already points to {taken!r}"
            )
        _ALIASES[alias] = key
    return arch


def registered() -> Tuple[str, ...]:
    """The registered architecture keys, sorted."""
    return tuple(sorted(_REGISTRY))


def architecture(name) -> Architecture:
    """Look up a registered architecture.

    Accepts the registry key (``"ampere"``), an alias (``"sm86"``), the
    descriptive ``Architecture.name`` (``"RTX A6000"`` — pickling
    reduces by it), or an ``Architecture`` instance (returned as-is, so
    call sites can normalize either spelling).
    """
    if isinstance(name, Architecture):
        return name
    key = str(name).lower()
    found = _REGISTRY.get(key) or _REGISTRY.get(_ALIASES.get(key, ""))
    if found is None:
        for arch in _REGISTRY.values():
            if arch.name == name:
                return arch
        known = sorted(set(_REGISTRY) | set(_ALIASES))
        raise KeyError(f"unknown architecture {name!r}; known: {known}")
    return found
