"""Exact scalar arithmetic: Eisenstein integers and rational plumbing.

Character sums over F_3 take values in Z[w] where w = exp(2*pi*i/3) is
a primitive cube root of unity with w^2 = -1 - w.  Every value is kept
as an exact pair a + b*w; squared magnitudes are exact rationals, so
all uniformity comparisons can be decided without floating point.

Rationals are plain `fractions.Fraction` values: always reduced,
positive denominator, exact arithmetic.  The text form used at package
boundaries is str(Fraction), i.e. "num/den" with "/den" omitted when
the denominator is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


@dataclass(frozen=True)
class Eisenstein:
    """a + b*w with w a primitive cube root of unity (w^2 = -1 - w)."""

    a: int
    b: int

    def __add__(self, other: Eisenstein) -> Eisenstein:
        return Eisenstein(self.a + other.a, self.b + other.b)

    def __sub__(self, other: Eisenstein) -> Eisenstein:
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __neg__(self) -> Eisenstein:
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: Eisenstein | int) -> Eisenstein:
        if isinstance(other, int):
            return Eisenstein(self.a * other, self.b * other)
        # (a1 + b1 w)(a2 + b2 w), using w^2 = -1 - w
        return Eisenstein(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a - self.b * other.b,
        )

    __rmul__ = __mul__

    def norm(self) -> int:
        """Squared complex magnitude |a + b w|^2 = a^2 - a b + b^2 >= 0."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}w"


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or "num") into an exact fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Canonical text form: reduced "num/den", "/den" omitted when 1."""
    return str(Fraction(value))
