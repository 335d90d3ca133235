"""Exact rational plumbing for the package's text boundaries.

Rationals are plain `fractions.Fraction` values: always reduced,
positive denominator, exact arithmetic.  The text form used at package
boundaries is str(Fraction), i.e. "num/den" with "/den" omitted when
the denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or "num") into an exact fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Canonical text form: reduced "num/den", "/den" omitted when 1."""
    return str(Fraction(value))
