"""Kernel backend registry: one dispatch point for the hot loops.

The six hot kernels of the reproduction (frontier expansion, the BFS
colour-transform level step, the effective-degree sweep, the Trim
decrement, the WCC hook round, the Trim2 pattern match, and the
phase-2 colour-collecting DFS) each exist in up to three
implementations:

``numpy``
    The reference implementations (:mod:`repro.kernels.reference`) —
    plain vectorized NumPy, byte-for-byte the semantics the rest of
    the library was validated against.
``numba``
    The accelerated backend.  With numba installed every kernel is a
    ``@njit``-compiled tight loop (:mod:`repro.kernels.jit`); without
    numba each kernel *individually* degrades to the best available
    pure-NumPy implementation (:mod:`repro.kernels.fastpath`, falling
    back to the reference where no better vectorization exists).  The
    backend is therefore always usable — ``numba`` names the request,
    not a hard dependency.
``auto``
    Resolve to the accelerated backend (the default).

Selection, in priority order:

1. an explicit :func:`set_backend` / :func:`use_backend` call
   (the CLI ``--kernels`` flag goes through this);
2. the ``REPRO_KERNELS`` environment variable;
3. ``auto``.

Contract for every registered implementation (DESIGN.md §8): given the
same inputs it must produce the same *sets* and the same sorted output
arrays as the reference, and any quantity that feeds the
:class:`~repro.runtime.trace.WorkTrace` (edges scanned, nodes visited,
iteration counts) must be identical — the simulated-scheduler figures
may never depend on which backend computed them.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "BACKEND_CHOICES",
    "available_backends",
    "backend_info",
    "get_backend",
    "get_kernel",
    "jit_active",
    "kernel_names",
    "numba_available",
    "register",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: what ``--kernels`` / ``REPRO_KERNELS`` / :func:`set_backend` accept.
BACKEND_CHOICES = ("numpy", "numba", "auto")

#: environment variable consulted when no explicit request was made.
ENV_VAR = "REPRO_KERNELS"

# kernel name -> backend name -> implementation
_REGISTRY: Dict[str, Dict[str, Callable]] = {}

# explicit request (set_backend / use_backend); None defers to the env.
_override: Optional[str] = None

_numba_available: Optional[bool] = None
_warned_missing_numba = False


def numba_available() -> bool:
    """True when numba imports cleanly (cached after the first probe)."""
    global _numba_available
    if _numba_available is None:
        try:  # pragma: no cover - depends on the environment
            import numba  # noqa: F401

            _numba_available = True
        except Exception:
            _numba_available = False
    return _numba_available


def register(name: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator: register ``fn`` as ``name``'s ``backend`` implementation.

    Registering the same (name, backend) slot again *replaces* the
    previous implementation — :mod:`repro.kernels.jit` uses this to
    upgrade the ``numba`` slot from the fastpath fallback to the
    compiled kernel when numba is importable.
    """
    if backend not in ("numpy", "numba"):
        raise ValueError(
            f"implementations register under 'numpy' or 'numba', "
            f"not {backend!r}"
        )

    def deco(fn: Callable) -> Callable:
        _REGISTRY.setdefault(name, {})[backend] = fn
        return fn

    return deco


def resolve_backend(request: Optional[str] = None) -> str:
    """Map a request to the concrete backend ('numpy' or 'numba').

    ``None`` consults the override set by :func:`set_backend`, then
    ``$REPRO_KERNELS``, then defaults to ``auto``.  ``auto`` resolves
    to the accelerated backend (it is always available: without numba
    it runs the per-kernel NumPy fallbacks).  Requesting ``numba``
    without numba installed warns once and proceeds on the fallbacks.
    """
    global _warned_missing_numba
    if request is None:
        request = _override or os.environ.get(ENV_VAR) or "auto"
    if request not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {request!r}; "
            f"choose from {BACKEND_CHOICES}"
        )
    if request == "auto":
        return "numba"
    if request == "numba" and not numba_available():
        if not _warned_missing_numba:
            _warned_missing_numba = True
            warnings.warn(
                "kernel backend 'numba' requested but numba is not "
                "installed; running the pure-NumPy fallback "
                "implementations (install the [perf] extra for JIT)",
                RuntimeWarning,
                stacklevel=2,
            )
    return request


def set_backend(request: Optional[str]) -> None:
    """Pin the backend request for the process (None clears the pin)."""
    global _override
    if request is not None and request not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {request!r}; "
            f"choose from {BACKEND_CHOICES}"
        )
    _override = request


def get_backend() -> str:
    """The concrete backend ('numpy' or 'numba') calls dispatch to now."""
    return resolve_backend()


@contextlib.contextmanager
def use_backend(request: str) -> Iterator[None]:
    """Temporarily pin the backend (parity tests and benchmarks)."""
    global _override
    previous = _override
    set_backend(request)
    try:
        yield
    finally:
        _override = previous


def get_kernel(name: str, backend: Optional[str] = None) -> Callable:
    """The implementation of kernel ``name`` for the active backend.

    Falls back to the ``numpy`` reference when the resolved backend
    has no registration for this kernel (the per-kernel fallback rule).
    """
    try:
        impls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    resolved = resolve_backend(backend)
    impl = impls.get(resolved)
    if impl is None:
        impl = impls["numpy"]
    return impl


def jit_active() -> bool:
    """True when calls dispatch to the compiled loops of
    :mod:`repro.kernels.jit`: numba imports and the ``numba`` slot is
    resolved.  Those loops index the CSR arrays without bounds checks,
    so a rotten entry reads or writes outside them instead of raising.
    """
    return numba_available() and resolve_backend() == "numba"


def kernel_names() -> tuple[str, ...]:
    """All registered kernel names (sorted)."""
    return tuple(sorted(_REGISTRY))


def available_backends(name: str) -> tuple[str, ...]:
    """Backends with a registered implementation for kernel ``name``."""
    return tuple(sorted(_REGISTRY.get(name, ())))


def backend_info() -> Dict[str, object]:
    """Machine-readable dispatch state (benchmarks embed this).

    ``resolved`` names what actually runs: ``"numba"`` only when the
    JIT kernels are importable, ``"fastpath"`` when the accelerated
    slot is active but numba is absent (the tuned pure-NumPy
    fallbacks), ``"numpy"`` for the reference tier.  A report of
    ``"numba"`` alongside ``numba_available: false`` was a bug —
    ``auto`` must never claim a backend that cannot be imported.
    """
    requested = _override or os.environ.get(ENV_VAR) or "auto"
    slot = resolve_backend()
    jit = jit_active()
    if slot == "numba" and not jit:
        resolved = "fastpath"
    else:
        resolved = slot
    return {
        "requested": requested,
        "resolved": resolved,
        "numba_available": numba_available(),
        "jit_active": jit,
        "kernels": {
            name: available_backends(name) for name in kernel_names()
        },
    }
