"""Shared size-guard machinery for the enumeration engines."""

from __future__ import annotations

MAX_SWEEP = 117_649  # |UT_4(F_7)|: the one bound on the elements a brute-force sweep visits


class SizeGuardError(ValueError):
    """An input exceeds the documented engine bound for an operation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SizeGuardError(msg)


def require_sweep(what: str, count: int) -> None:
    """Refuse, before any work, a sweep that would visit more than MAX_SWEEP elements.

    A count past 1,024 bits is named by its power of 2: Python refuses to turn
    an int of more than 4,300 digits into text."""
    if count > MAX_SWEEP:
        bits = count.bit_length()
        shown = f"{count:,}" if bits <= 1024 else f"at least 2^{bits - 1:,}"
        raise SizeGuardError(f"sweeping {what} visits {shown} elements, "
                             f"past the bound MAX_SWEEP = {MAX_SWEEP:,}")
