"""Shared size-guard machinery for the enumeration engines."""

from __future__ import annotations

MAX_SWEEP = 117_649  # |UT_4(F_7)|: the one bound on the elements a brute-force sweep visits


class SizeGuardError(ValueError):
    """An input exceeds the documented engine bound for an operation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SizeGuardError(msg)


def require_sweep(what: str, count: int) -> None:
    """Refuse, before any work, a sweep that would visit more than MAX_SWEEP elements."""
    require(count <= MAX_SWEEP,
            f"sweeping {what} visits {count:,} elements, past the bound MAX_SWEEP = {MAX_SWEEP:,}")
