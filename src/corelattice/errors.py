"""Shared exception types, the default cap, the permutation ceiling, and the text of the ints a cap message names."""

from __future__ import annotations

DEFAULT_CAP = 10_000_000  # cores enumerated, or what a command counts in their place
DISTRIBUTION_CAP = 9  # the largest n whose S_n the permutation brute force walks
SHOWN_DIGITS = 40  # a longer int is named in a message by its digit count


class CapExceededError(RuntimeError):
    """Raised when a requested enumeration would exceed the configured cap."""


class FitValidationError(ValueError):
    """Raised when held-out samples contradict a fitted (quasi)polynomial."""


def int_text(n: int) -> str:
    """``n`` in decimal, or ``"a k-digit number"`` when it has more than :data:`SHOWN_DIGITS` digits.

    The digits are counted without ``str(n)``, which Python refuses past 4,300
    digits, so a cap message stays one short line however large the count.

    >>> int_text(5), int_text(10**40 - 1)[-3:], int_text(10**40), int_text(-7 * 10**5000)
    ('5', '999', 'a 41-digit number', 'a 5001-digit number')
    """
    m = abs(n)
    if m < 10**SHOWN_DIGITS:
        return str(n)
    digits = (m.bit_length() - 1) * 30102999 // 10**8 + 1  # a lower bound, as log10(2) > 0.30102999
    while 10**digits <= m:
        digits += 1
    return f"a {digits}-digit number"
