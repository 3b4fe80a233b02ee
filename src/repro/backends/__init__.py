"""Pluggable sparse-kernel backends (the solver's kernel axis).

Every protected solve draws its numerical primitives — above all the
SpMxV hot kernel — from a :class:`~repro.backends.protocol
.KernelBackend`.  Two implementations ship (``docs/DESIGN.md`` §6):

``reference`` (the default)
    The repository's own NumPy kernels.  Bit-identical oracle: the
    golden trajectories, the ABFT tolerance proofs and the fault-
    emulation semantics are all defined against it, and the registry
    resolves it to the raw kernel so the default path pays no dispatch.

``scipy``
    SciPy's compiled CSR matvec for *structure-clean* products
    (typically 2–4× faster; the campaign ledger's ``backends.spmv_us``
    tracks it),
    with every guarded path — any matrix lacking the
    ``structure_clean`` stamp — routed back through the reference
    kernel so ABFT detection semantics are preserved.  Resolving the
    name only checks that SciPy is installed; the first product loads
    the compiled kernel's extension module, and ``scipy.sparse`` itself
    is never imported.  Without SciPy the name raises
    :class:`BackendUnavailableError` (no silent reference fallback).

Select a backend anywhere the solve stack is entered: ``spmv(a, x,
backend="scipy")``, ``protected_spmv(..., backend=...)``,
``repro.solve(a, b, backend="scipy")``, ``Study().axis("backend",
[...])``, ``repro solve --backend scipy``.  Custom backends register
with :func:`register_backend` and become addressable by name
everywhere, including campaign ``TaskSpec`` records.

Seeding note: the fault-stream RNG derivation deliberately does *not*
include the backend name, so two backends at the same parameter point
face identical strike sequences — exactly what a backend comparison
wants.  Task content hashes *do* include the backend, so result stores
never conflate them.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.protocol import (
    BackendUnavailableError,
    BaseBackend,
    KernelBackend,
)
from repro.backends.reference import ReferenceBackend
from repro.backends.scipy_backend import ScipyBackend

__all__ = [
    "KernelBackend",
    "BaseBackend",
    "ReferenceBackend",
    "ScipyBackend",
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "register_backend",
    "available_backends",
    "backend_available",
    "get_backend",
    "resolve_backend",
]

#: Name of the default backend (the bit-identity oracle).
DEFAULT_BACKEND = "reference"

#: name -> zero-argument factory.  Factories run once; instances are
#: shared process-wide (backends are stateless service objects).
_FACTORIES: "dict[str, Callable[[], KernelBackend]]" = {
    "reference": ReferenceBackend,
    "scipy": ScipyBackend,
}

_INSTANCES: "dict[str, KernelBackend]" = {}


def register_backend(
    name: str, factory: "Callable[[], KernelBackend]", *, replace: bool = False
) -> None:
    """Register a custom backend under ``name``.

    ``factory`` is a zero-argument callable returning a
    :class:`KernelBackend`; it is invoked lazily, once, on first use.
    Registered names are accepted everywhere a backend is named —
    ``solve(backend=name)``, study axes, ``TaskSpec.backend``, the
    CLI.  Shipped names cannot be overwritten unless ``replace=True``.

    Process-scope caveat: the registry is per-process state.  Campaign
    workers inherit it under the ``fork`` start method (Linux default)
    but **not** under ``spawn``/``forkserver`` (macOS, Windows), where
    a custom name raises ``unknown backend`` inside the worker —
    perform the registration at import time of a module the workers
    also import (e.g. the module defining your study) to make it
    start-method-proof.
    """
    name = str(name)
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered (pass replace=True)")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> "tuple[str, ...]":
    """Registered backend names, shipped ones first.

    Registered, not necessarily *runnable*: ``"scipy"`` is always
    listed but needs SciPy installed, and a custom backend may need its
    own dependency — probe with :func:`backend_available` before
    sweeping it.
    """
    return tuple(_FACTORIES)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered *and* instantiable here.

    ``False`` for unregistered names and for registered backends whose
    dependency is missing (``"scipy"`` without SciPy, or a custom
    backend whose factory raises :class:`BackendUnavailableError`).
    Never raises — this is the probe for test skips and sweep pre-flight;
    :func:`get_backend` is the strict variant whose
    :class:`BackendUnavailableError` explains how to install.
    """
    if name not in _FACTORIES:
        return False
    try:
        get_backend(name)
    except BackendUnavailableError:
        return False
    return True


def get_backend(backend: "str | KernelBackend") -> "KernelBackend":
    """Resolve a name (or pass an instance through) to a backend.

    Instances are cached per name, so every solve in the process
    shares one object per registered backend.
    """
    if not isinstance(backend, str):
        if isinstance(backend, KernelBackend):
            return backend
        raise TypeError(
            f"backend must be a name or a KernelBackend, got {type(backend).__name__}"
        )
    inst = _INSTANCES.get(backend)
    if inst is None:
        factory = _FACTORIES.get(backend)
        if factory is None:
            raise ValueError(
                f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
            )
        inst = _INSTANCES[backend] = factory()
    return inst


def resolve_backend(
    backend: "str | KernelBackend | None",
) -> "KernelBackend | None":
    """Normalize a backend argument for the hot paths.

    Returns ``None`` for the reference backend (by name, instance or
    ``None`` itself) so callers can keep the raw-kernel fast path with
    a single identity check, and the shared instance otherwise.  The
    name ``"reference"`` is resolved through the registry, not
    special-cased, so a replacement registered with
    ``register_backend("reference", ..., replace=True)`` is honoured
    on every dispatch path.
    """
    if backend is None:
        return None
    be = get_backend(backend)
    # Exact type, not isinstance: a subclass customizing spmv must
    # keep receiving the dispatch (only the stock reference backend
    # collapses to the raw-kernel fast path).
    if type(be) is ReferenceBackend:
        return None
    # Resolution happens once per solve (the engine hands the instance
    # down), so counting the dispatch choice here costs nothing on the
    # per-product path — and the reference fast path above pays zero.
    from repro.obs.metrics import METRICS

    METRICS.inc(f"backends.dispatch.{getattr(be, 'name', 'custom')}")
    return be
