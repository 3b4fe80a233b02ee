"""Expected frame time: Equations 4–5 of the paper.

Derivation (Section 4.1): a frame executes ``s`` chunks of ``T`` work
units, each followed by a ``Tverif`` verification, and closes with a
``Tcp`` checkpoint.  With per-chunk success probability ``q``, all ``s``
chunks succeed with probability ``qˢ``; otherwise the error is caught
at the end of its chunk (conditional distribution ``f_i``), the lost
time is ``E(T_lost)``, a recovery ``Trec`` is paid and the frame starts
over.  Solving the recursion gives Eq. 5; this module implements the
closed forms including the ``q → 1`` (error-free) limits.
"""

from __future__ import annotations

from repro.util.validate import check_nonnegative, check_positive, check_probability

__all__ = ["expected_time_lost", "expected_frame_time", "frame_overhead"]


def expected_time_lost(s: int, t: float, t_verif: float, q: float) -> float:
    """``E(T_lost)``: expected wasted time when a frame fails.

    .. math::

        E(T_{lost}) = (T + T_{verif}) ·
            \\frac{s q^{s+1} − (s+1) q^s + 1}{(1 − q^s)(1 − q)}

    Defined for ``q < 1`` (with ``q = 1`` a frame never fails, so the
    conditional expectation is vacuous and we return 0).
    """
    _check_common(s, t, t_verif, q)
    if q >= 1.0:
        return 0.0
    qs = q**s
    numer = s * q ** (s + 1) - (s + 1) * qs + 1.0
    denom = (1.0 - qs) * (1.0 - q)
    return (t + t_verif) * numer / denom


def expected_frame_time(
    s: int,
    t: float,
    t_cp: float,
    t_rec: float,
    t_verif: float,
    q: float,
) -> float:
    """``E(s, T)`` of Eq. 5 — expected time to complete one frame.

    .. math::

        E(s,T) = T_{cp} + (q^{-s} − 1) T_{rec}
               + (T + T_{verif}) \\frac{1 − q^s}{q^s (1 − q)}

    In the error-free limit ``q → 1`` this degenerates to
    ``s·(T + Tverif) + Tcp`` (every chunk runs once, no recovery), which
    is also what the formula tends to.
    """
    _check_common(s, t, t_verif, q)
    check_nonnegative("t_cp", t_cp)
    check_nonnegative("t_rec", t_rec)
    if q >= 1.0:
        return s * (t + t_verif) + t_cp
    qs = q**s
    return t_cp + (1.0 / qs - 1.0) * t_rec + (t + t_verif) * (1.0 - qs) / (qs * (1.0 - q))


def frame_overhead(
    s: int,
    t: float,
    t_cp: float,
    t_rec: float,
    t_verif: float,
    q: float,
) -> float:
    """The Eq.-6 objective ``E(s, T) / (s·T)``.

    The value is the expected time paid per *useful* time unit; the
    optimal checkpointing interval minimizes it over ``s ≥ 1``.
    """
    return expected_frame_time(s, t, t_cp, t_rec, t_verif, q) / (s * t)


def _check_common(s: int, t: float, t_verif: float, q: float) -> None:
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    check_positive("t", t)
    check_nonnegative("t_verif", t_verif)
    check_probability("q", q)
    if q == 0.0:
        raise ValueError("q must be positive: a chunk with q=0 never succeeds")
