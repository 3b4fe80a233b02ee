"""Silent-error injection following Section 5.1 of the paper.

Faults are bit flips striking, independently each iteration, either the
matrix arrays (``Val``, ``Colid``, ``Rowidx``) or the iteration vectors
(``r``, ``q``, ``p``, ``x``) of CG, under an exponential/Poisson model
with rate ``λ = α/M`` where ``M`` is the memory footprint in words and
``α ∈ (0, 1)``.  Selective reliability holds: checksum data and
checksum arithmetic are never corrupted.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - static tools only
    from repro.faults.bitflip import flip_bit_float64, flip_bit_int64, flip_bits_array
    from repro.faults.record import FaultRecord
    from repro.faults.injector import FaultInjector, FaultModel

__all__ = [
    "flip_bit_float64",
    "flip_bit_int64",
    "flip_bits_array",
    "FaultRecord",
    "FaultInjector",
    "FaultModel",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.bitflip": (
            "flip_bit_float64",
            "flip_bit_int64",
            "flip_bits_array",
        ),
        "repro.faults.record": ("FaultRecord",),
        "repro.faults.injector": ("FaultInjector", "FaultModel"),
    },
)
