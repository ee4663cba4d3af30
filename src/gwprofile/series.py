"""Exact truncated power series over the rationals.

:class:`RationalSeries` is a univariate truncated power series with
:class:`fractions.Fraction` coefficients; all arithmetic is exact up to the
stated truncation order.  :class:`BivariateSeries` is its two-variable
counterpart (variables z and u), used for joint edge/leaf counting.
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
    def zero(cls, order: int) -> "RationalSeries":
        return cls((Fraction(0),) * (order + 1))

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

    def __add__(self, other) -> "RationalSeries":
        if isinstance(other, RationalSeries):
            n = min(self.order, other.order)
            return RationalSeries(
                [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
            )
        c = list(self.coeffs)
        c[0] += _frac(other)
        return RationalSeries(c)

    __radd__ = __add__

    def __neg__(self) -> "RationalSeries":
        return RationalSeries([-c for c in self.coeffs])

    def __sub__(self, other) -> "RationalSeries":
        return self + (-other if isinstance(other, RationalSeries) else -_frac(other))

    def __rsub__(self, other) -> "RationalSeries":
        return (-self) + _frac(other)

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

    def __truediv__(self, other) -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            s = _frac(other)
            return RationalSeries([c / s for c in self.coeffs])
        v = other.valuation()
        if v is None:
            raise DomainError("division by the zero series")
        if v > 0:
            # Exact division requires matching leading zeros; the result is
            # only known to order (min order) - v.
            if any(c != 0 for c in self.coeffs[:v]):
                raise DomainError("series not divisible: valuation mismatch")
            num = RationalSeries(self.coeffs[v:]) if self.order >= v else None
            if num is None:
                raise DomainError("series too short to divide")
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
        """Exact square root with nonnegative leading coefficient.

        The constant term must be the square of a rational.
        """
        c0 = self.coeffs[0]
        if c0 < 0:
            raise DomainError("series sqrt needs a nonnegative constant term")
        if c0 == 0:
            v = self.valuation()
            if v is None:
                return RationalSeries(self.coeffs)
            if v % 2:
                raise DomainError("series sqrt needs even valuation")
            shifted = RationalSeries(self.coeffs[v:]).sqrt()
            return RationalSeries(
                (Fraction(0),) * (v // 2) + shifted.coeffs
            )
        r0 = _rational_sqrt(c0)
        out = [r0]
        for k in range(1, self.order + 1):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc -= out[j] * out[k - j]
            out.append(acc / (2 * r0))
        return RationalSeries(out)


def _rational_sqrt(x: Fraction) -> Fraction:
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise DomainError(f"{x} is not the square of a rational")
    return Fraction(num, den)


class BivariateSeries:
    """Truncated series sum c[i][j] z^i u^j with exact coefficients.

    ``coeffs[i][j]`` is the coefficient of z^i u^j; the rectangle of orders
    (z_order, u_order) is fixed per instance and preserved by arithmetic
    (binary operations truncate to the componentwise minimum).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Sequence]):
        if not coeffs or not coeffs[0]:
            raise DomainError("bivariate series needs at least one coefficient")
        width = len(coeffs[0])
        if any(len(row) != width for row in coeffs):
            raise DomainError("ragged coefficient table")
        self.coeffs = tuple(tuple(_frac(c) for c in row) for row in coeffs)

    @classmethod
    def zero(cls, z_order: int, u_order: int) -> "BivariateSeries":
        return cls([[Fraction(0)] * (u_order + 1) for _ in range(z_order + 1)])

    @property
    def z_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def u_order(self) -> int:
        return len(self.coeffs[0]) - 1

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.coeffs[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"BivariateSeries(z_order={self.z_order}, u_order={self.u_order})"

    def __add__(self, other) -> "BivariateSeries":
        if isinstance(other, BivariateSeries):
            nz = min(self.z_order, other.z_order)
            nu = min(self.u_order, other.u_order)
            return BivariateSeries(
                [
                    [self.coeffs[i][j] + other.coeffs[i][j] for j in range(nu + 1)]
                    for i in range(nz + 1)
                ]
            )
        rows = [list(r) for r in self.coeffs]
        rows[0][0] += _frac(other)
        return BivariateSeries(rows)

    __radd__ = __add__

    def __mul__(self, other) -> "BivariateSeries":
        if isinstance(other, BivariateSeries):
            nz = min(self.z_order, other.z_order)
            nu = min(self.u_order, other.u_order)
            out = [[Fraction(0)] * (nu + 1) for _ in range(nz + 1)]
            for i1, row1 in enumerate(self.coeffs):
                if i1 > nz:
                    break
                for j1, c1 in enumerate(row1):
                    if j1 > nu:
                        break
                    if c1 == 0:
                        continue
                    for i2 in range(nz - i1 + 1):
                        row2 = other.coeffs[i2] if i2 <= other.z_order else None
                        if row2 is None:
                            break
                        for j2 in range(nu - j1 + 1):
                            if j2 <= other.u_order and row2[j2] != 0:
                                out[i1 + i2][j1 + j2] += c1 * row2[j2]
            return BivariateSeries(out)
        s = _frac(other)
        return BivariateSeries([[c * s for c in row] for row in self.coeffs])

    __rmul__ = __mul__

    def shift_u(self, k: int = 1) -> "BivariateSeries":
        """Multiply by u^k (truncated)."""
        nu = self.u_order
        return BivariateSeries(
            [
                tuple([Fraction(0)] * min(k, nu + 1))
                + row[: max(nu + 1 - k, 0)]
                for row in self.coeffs
            ]
        )

    def compose_z(self, inner: "BivariateSeries") -> "BivariateSeries":
        """Substitute ``inner`` for z: sum_i b_i(u) inner^i.

        Exact on the full rectangle when the z-coefficient rows b_i have
        u-valuation >= i (as in the joint leaf/edge fixed point), since then
        dropped i > u_order terms cannot reach kept u-powers.
        """
        nz = min(self.z_order, inner.z_order)
        nu = min(self.u_order, inner.u_order)
        result = BivariateSeries.zero(nz, nu)
        for i in range(min(self.z_order, nu), -1, -1):
            row = BivariateSeries([self.coeffs[i][: nu + 1]])
            # Promote the u-polynomial row to the full rectangle.
            promoted = BivariateSeries(
                [row.coeffs[0]] + [tuple([Fraction(0)] * (nu + 1))] * nz
            )
            result = result * inner + promoted
        return result
