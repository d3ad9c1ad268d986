"""Shared size-guard machinery for the enumeration engines."""

from __future__ import annotations

MAX_SWEEP = 117_649  # |UT_4(F_7)|: the one bound on the elements a brute-force sweep visits


class SizeGuardError(ValueError):
    """An input exceeds the documented engine bound for an operation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SizeGuardError(msg)


def _refuse(what: str, shown: str) -> None:
    raise SizeGuardError(f"sweeping {what} visits {shown} elements, "
                         f"past the bound MAX_SWEEP = {MAX_SWEEP:,}")


def require_sweep(what: str, count: int, at_least: bool = False) -> None:
    """Refuse, before any work, a sweep that would visit more than MAX_SWEEP elements.

    A count that is only a lower bound of the sweep is named "at least" it.
    A count past 1,024 bits is named by its power of 2: Python refuses to turn
    an int of more than 4,300 digits into text."""
    if count > MAX_SWEEP:
        bits = count.bit_length()
        if bits > 1024:
            _refuse(what, f"at least 2^{bits - 1:,}")
        _refuse(what, f"at least {count:,}" if at_least else f"{count:,}")


def require_power(what: str, base: int, exp: int) -> None:
    """require_sweep on base^exp, refused on its exponent first: past 2^1,024 the
    power is never built and is named by 2^(exp * floor(log2 base)), which it is
    at least, exactly when base is 2."""
    low = base.bit_length() - 1
    if exp * low > 1024:
        _refuse(what, f"at least 2^{exp * low:,}")
    require_sweep(what, base ** exp)
