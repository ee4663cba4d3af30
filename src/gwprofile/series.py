"""Exact truncated power series over the rationals.

:class:`RationalSeries` is a univariate truncated power series with
:class:`fractions.Fraction` coefficients; all arithmetic is exact up to the
stated truncation order.  It carries only the operations that the check
routes :func:`gwprofile.genfun.closed_form_series` and
:func:`gwprofile.genfun.solve_nu_gf` call: sums, differences, products,
division and the square root of a series with a positive constant term.

Products and division run on Fractions, O(order²) operations each.  The
square root runs its O(order²) Taylor recurrence on Python ints, after
one rescaling of z, and builds one Fraction per output coefficient:
every Fraction operation pays a gcd, which dominates at the orders the
check routes use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, IntegrityError


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_scale(terms) -> tuple:
    """(c, [c^j·x for each (j, x) in terms]), every c^j·x an integer.

    c takes the lcm with x's denominator whenever c^j is not yet a
    multiple of it; raises IntegrityError if some c^j·x is still not an
    integer (a non-integral x at j = 0).
    """
    terms = list(terms)
    c = 1
    for j, x in terms:
        if pow(c, j, x.denominator):
            c = math.lcm(c, x.denominator)
    scaled = [x * c**j for j, x in terms]
    for (j, x), n in zip(terms, scaled):
        if n.denominator != 1:
            raise IntegrityError(f"rescaling {x} by {c}^{j} is not integral")
    return c, [n.numerator for n in scaled]


class RationalSeries:
    """Truncated power series sum_{k<=order} c_k z^k, exact coefficients.

    Binary operations truncate to the smaller of the two orders.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise DomainError("a series needs at least a constant term")
        self.coeffs = tuple(_frac(c) for c in coeffs)

    @classmethod
    def constant(cls, value, order: int) -> "RationalSeries":
        return cls((_frac(value),) + (Fraction(0),) * order)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence, order: int) -> "RationalSeries":
        cs = [_frac(c) for c in coeffs[: order + 1]]
        if any(_frac(c) != 0 for c in coeffs[order + 1 :]):
            raise DomainError("polynomial degree exceeds series order")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"RationalSeries([{shown}{tail}], order={self.order})"

    def truncate(self, order: int) -> "RationalSeries":
        if order >= self.order:
            return self.extend(order)
        return RationalSeries(self.coeffs[: order + 1])

    def extend(self, order: int) -> "RationalSeries":
        """Pad with zero coefficients (caller asserts they are truly zero)."""
        if order <= self.order:
            return self
        return RationalSeries(self.coeffs + (Fraction(0),) * (order - self.order))

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        n = min(self.order, other.order)
        return RationalSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    def __neg__(self) -> "RationalSeries":
        return RationalSeries([-c for c in self.coeffs])

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        return self + (-other)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, RationalSeries):
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            out = [Fraction(0)] * (n + 1)
            for i in range(min(len(a) - 1, n) + 1):
                ai = a[i]
                if ai == 0:
                    continue
                for j in range(min(len(b) - 1, n - i) + 1):
                    if b[j] != 0:
                        out[i + j] += ai * b[j]
            return RationalSeries(out)
        s = _frac(other)
        return RationalSeries([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalSeries") -> "RationalSeries":
        v = other.valuation()
        if v is None:
            raise DomainError("division by the zero series")
        if v > 0:
            # Exact division requires matching leading zeros; the result is
            # only known to order (min order) - v.
            if any(c != 0 for c in self.coeffs[:v]):
                raise DomainError("series not divisible: valuation mismatch")
            if self.order < v:
                raise DomainError("series too short to divide")
            num = RationalSeries(self.coeffs[v:])
            den = RationalSeries(other.coeffs[v:])
            return num / den
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        inv_b0 = 1 / b[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = a[k] if k <= self.order else Fraction(0)
            for j in range(1, min(k, other.order) + 1):
                if b[j] != 0:
                    acc -= b[j] * out[k - j]
            out[k] = acc * inv_b0
        return RationalSeries(out)

    def sqrt(self) -> "RationalSeries":
        """Exact square root with positive constant term.

        The constant term must be the square of a positive rational.
        """
        c0 = self.coeffs[0]
        if c0 <= 0:
            raise DomainError("series sqrt needs a positive constant term")
        r0 = _rational_sqrt(c0)
        # √(c0·u) = r0·t with u = self/c0, u_0 = 1, t² = u.  With c every
        # c^k·u_k an integer, u(4c·z) = 1 + 4y(z) for an integer series y,
        # and σ_k = t_k·(4c)^k are the coefficients of √(1 + 4y), integers
        # because binom(1/2, m)·4^m is.  The Taylor recurrence
        # 2σ_k = β_k − Σ_{j=1..k−1} σ_j σ_{k−j}, with β_k = u_k·(4c)^k,
        # then runs on ints.
        c, beta = _integer_scale(enumerate(x / c0 for x in self.coeffs))
        c *= 4
        sigma = [1]
        out = [r0]
        scale = 1
        for k in range(1, self.order + 1):
            scale *= c
            acc = sum(sigma[j] * sigma[k - j] for j in range(1, k))
            s, rem = divmod(beta[k] * 4**k - acc, 2)
            if rem:
                raise IntegrityError("series sqrt recurrence left a remainder")
            sigma.append(s)
            out.append(Fraction(r0.numerator * s, r0.denominator * scale))
        return RationalSeries(out)


def _rational_sqrt(x: Fraction) -> Fraction:
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise DomainError(f"{x} is not the square of a rational")
    return Fraction(num, den)

