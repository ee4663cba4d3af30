from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gwprofile.errors import DomainError, IntegrityError
from gwprofile.genfun import _MODEL_DATA, _radicand
from gwprofile.series import RationalSeries, _integer_scale, _rational_sqrt

ORDER = 8

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series(order=ORDER):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        RationalSeries
    )


def reference_sqrt(a: RationalSeries) -> RationalSeries:
    """The Taylor recurrence 2·r0·s_k = a_k − Σ_{j=1..k−1} s_j·s_{k−j},
    step by step in Fractions: the definition RationalSeries.sqrt must
    match."""
    r0 = _rational_sqrt(a[0])
    out = [r0]
    for k in range(1, a.order + 1):
        acc = a[k]
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out.append(acc / (2 * r0))
    return RationalSeries(out)


class TestRing:
    @given(series(), series())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(series(), series(), series())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(series())
    def test_sub_self(self, a):
        assert a - a == RationalSeries([0] * (ORDER + 1))

    def test_getitem(self):
        s = RationalSeries([1, 2, 3])
        assert s[0] == 1 and s[2] == 3
        assert s.extend(5)[5] == 0


class TestDivision:
    @given(series())
    def test_div_roundtrip(self, a):
        b = RationalSeries([Fraction(1)] + [Fraction(1, 3)] * ORDER)
        assert (a / b) * b == a

    def test_div_by_zero_valuation(self):
        with pytest.raises(DomainError):
            RationalSeries([1, 0]) / RationalSeries([0, 1])


class TestSqrt:
    def test_known(self):
        # sqrt(1 - 4z) has Catalan-related coefficients
        s = RationalSeries([1, -4] + [0] * 6).sqrt()
        assert s[0] == 1 and s[1] == -2 and s[2] == -2 and s[3] == -4

    @given(series())
    def test_square_root_roundtrip(self, a):
        z = RationalSeries.from_polynomial([0, 1], ORDER)
        u = RationalSeries.constant(1, ORDER) + a * z
        assert u.sqrt() * u.sqrt() == u

    @pytest.mark.parametrize("name", sorted(_MODEL_DATA))
    def test_matches_reference_on_builtin_radicands(self, name):
        radicand = RationalSeries.from_polynomial(_radicand(_MODEL_DATA[name]), 200)
        assert radicand.sqrt() == reference_sqrt(radicand)

    @given(
        st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=12),
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=60),
            min_size=0, max_size=14,
        ),
    )
    def test_matches_reference(self, root, tail):
        a = RationalSeries([root * root] + tail)
        assert a.sqrt() == reference_sqrt(a)

    def test_non_square_constant(self):
        with pytest.raises(DomainError):
            RationalSeries([2, 1]).sqrt()

    @pytest.mark.parametrize("coeffs", [[0, 0, 1], [0, 1], [0, 0, 0], [-1, 2]])
    def test_constant_term_must_be_positive(self, coeffs):
        with pytest.raises(DomainError, match="positive constant term"):
            RationalSeries(coeffs).sqrt()


class TestIntegerScale:
    def test_scales_to_integers(self):
        terms = [(0, Fraction(1)), (1, Fraction(1, 6)), (2, Fraction(1, 16)), (3, Fraction(2, 27))]
        c, scaled = _integer_scale(terms)
        assert scaled == [x * c**j for j, x in terms]
        assert all(isinstance(n, int) for n in scaled)

    def test_inexact_rescale_raises(self):
        # no scale turns a non-integral constant term into an integer
        with pytest.raises(IntegrityError, match="not integral"):
            _integer_scale([(0, Fraction(1, 2)), (1, Fraction(1, 4))])
