"""Method → recurrence-plugin dispatch.

The single entry point the experiment stack uses to run any protected
solver: :func:`run_ft_method` instantiates a fresh plugin for the
requested :class:`~repro.core.methods.Method` and hands it to the
engine.  Registering a new solver takes a plugin module, a ``Method``
enum member (with its supported schemes) in
:mod:`repro.core.methods`, and one factory line here — ``sim/`` and
``campaign/`` pick it up through the enum without changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.methods import Method
from repro.resilience.bicgstab import BiCGstabPlugin
from repro.resilience.cg import CGPlugin
from repro.resilience.engine import run_protected
from repro.resilience.pcg import JacobiPCGPlugin

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.accounting import SolveResult
    from repro.resilience.protocol import RecurrencePlugin

__all__ = ["PLUGIN_FACTORIES", "make_plugin", "run_ft_method"]

#: One factory per solver; factories must return a *fresh* plugin
#: (plugins are single-use — they hold one run's iteration state).
PLUGIN_FACTORIES: "dict[Method, Callable[[], RecurrencePlugin]]" = {
    Method.CG: CGPlugin,
    Method.BICGSTAB: BiCGstabPlugin,
    Method.PCG: JacobiPCGPlugin,
}


def make_plugin(method: "Method | str") -> "RecurrencePlugin":
    """Instantiate a fresh recurrence plugin for ``method``."""
    return PLUGIN_FACTORIES[Method.parse(method)]()


def run_ft_method(method: "Method | str", a, b, config, **kwargs) -> "SolveResult":
    """Run the fault-tolerant solver ``method`` on ``A x = b``.

    ``kwargs`` are forwarded to
    :func:`repro.resilience.engine.run_protected` (``alpha``, ``x0``,
    ``eps``, ``maxiter``, ``rng``, ``max_time_units``, ``tracer``,
    ``final_check``, ``workspace``, ``backend``).
    """
    return run_protected(make_plugin(method), a, b, config, **kwargs)
