"""The allocator zoo: a pluggable registry of allocation backends.

Every allocation scheme the pipeline can run — the paper's five setups
and anything added later — registers itself here as a *backend*: a
:class:`AllocatorInfo` capability record plus a runner callable.  The
pipeline (:func:`repro.regalloc.pipeline.run_setup`), the CLI, the
experiment grids, the compile-service protocol and the fuzz harness all
discover backends through this registry, so adding one in a single
``register_allocator`` call makes it reachable — and differentially
cross-checked — everywhere at once.

A runner has the signature ``runner(fn, ctx) -> AllocationResult``:

* ``fn`` is the virtual-register input function (never mutated);
* ``ctx`` is an :class:`AllocatorContext` carrying the pipeline knobs
  (register budgets, frequency estimates, machine capabilities) and the
  pipeline's checkpoint callable, which the runner invokes at the same
  stage boundaries the monolithic pipeline used to, so pass verifiers
  observe identical stage names regardless of how dispatch happens.

The registry deliberately knows nothing about the pipeline: built-in
backends are registered by :mod:`repro.regalloc.pipeline` at import
time, and the lookup helpers import it lazily so CLI code can call
:func:`allocator_names` without ordering constraints.

Registration order is served back verbatim by :func:`allocator_names`
— the pipeline registers the paper's setups first, so existing tuple
consumers (service request mixes, experiment grids) keep their historic
ordering with new backends appended at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.ir.function import Function
from repro.regalloc.base import AllocationResult

__all__ = [
    "AllocatorInfo",
    "AllocatorContext",
    "RegisteredAllocator",
    "register_allocator",
    "unregister_allocator",
    "get_allocator",
    "list_allocators",
    "allocator_names",
]


@dataclass(frozen=True)
class AllocatorInfo:
    """Capability metadata for one registered backend.

    ``differential`` marks backends that allocate over the full
    ``RegN`` register file and therefore go through the differential
    encode path (remapping + setlr elimination); non-differential
    backends (the baseline, the optimal spiller) are compared against
    them and skip re-encoding.
    """

    name: str
    description: str
    #: how the backend makes spill decisions, e.g. "iterated",
    #: "optimal-ilp", "everywhere"
    spill_style: str
    #: allocates over RegN and feeds the differential encoder
    differential: bool
    #: builds SSA form internally (diagnostic: such backends exercise
    #: the construct/destruct path and the parallel-move resolver)
    needs_ssa: bool = False
    #: provenance note, e.g. the paper a scheme comes from
    source: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``repro allocators --json``, bench docs)."""
        return {
            "name": self.name,
            "description": self.description,
            "spill_style": self.spill_style,
            "differential": self.differential,
            "needs_ssa": self.needs_ssa,
            "source": self.source,
        }


def _no_checkpoint(stage: str, fn: Function, **expectations: object) -> None:
    """Default checkpoint hook: observe nothing."""


@dataclass
class AllocatorContext:
    """Everything a backend needs beyond the input function.

    Mirrors :func:`repro.regalloc.pipeline.run_setup`'s keyword surface
    so runners stay free of pipeline imports.  ``checkpoint`` is called
    with ``(stage, fn, **expectations)`` at each stage boundary; the
    default does nothing, which is what standalone runner invocations
    (tests, benchmarks) want.
    """

    base_k: int = 8
    reg_n: int = 12
    diff_n: int = 8
    #: block name -> execution frequency estimate
    freq: Optional[Dict[str, float]] = None
    use_ilp: bool = True
    access_order: str = "src_first"
    checkpoint: Callable[..., None] = field(default=_no_checkpoint)


@dataclass(frozen=True)
class RegisteredAllocator:
    """A registry entry: capability record plus runner."""

    info: AllocatorInfo
    runner: Callable[[Function, AllocatorContext], AllocationResult]


_REGISTRY: Dict[str, RegisteredAllocator] = {}


def register_allocator(
    info: AllocatorInfo,
    runner: Callable[[Function, AllocatorContext], AllocationResult],
) -> RegisteredAllocator:
    """Register a backend; the name must be new and the runner callable."""
    if not info.name or not info.name.replace("_", "").isalnum():
        raise ValueError(f"invalid allocator name {info.name!r}")
    if info.name in _REGISTRY:
        raise ValueError(f"allocator {info.name!r} is already registered")
    if not callable(runner):
        raise TypeError(f"runner for {info.name!r} is not callable")
    entry = RegisteredAllocator(info=info, runner=runner)
    _REGISTRY[info.name] = entry
    return entry


def unregister_allocator(name: str) -> None:
    """Remove a backend (tests register throwaway backends)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    # the pipeline registers the built-in setups as an import side
    # effect; importing it here keeps the registry dependency-free
    # while letting the CLI ask for names before touching the pipeline
    import repro.regalloc.pipeline  # noqa: F401


def get_allocator(name: str) -> RegisteredAllocator:
    """Look up a backend by name (KeyError with the known names if absent)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown allocator {name!r}; registered: "
            f"{', '.join(allocator_names())}") from None


def list_allocators() -> Tuple[AllocatorInfo, ...]:
    """All registered backends' capability records, registration order."""
    _ensure_builtins()
    return tuple(entry.info for entry in _REGISTRY.values())


def allocator_names() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)
