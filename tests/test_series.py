"""The power-series recurrences of genfun's check routes: the Taylor square
root on integers and the integer rescaling."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gwprofile.errors import IntegrityError
from gwprofile.genfun import _MODEL_DATA, _integer_scale, _radicand, _taylor_sqrt

ORDER = 8

radicands = st.builds(
    lambda root, tail: [root * root] + tail,
    st.integers(min_value=1, max_value=9),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=14),
)


def as_fractions(r, w):
    """h_0..h_w of h = √r, from S_k = h_k·(4a)^k."""
    return [Fraction(x, (4 * r[0]) ** k) for k, x in enumerate(_taylor_sqrt(r, w))]


def reference_sqrt(r, w):
    """The Taylor recurrence 2·h_0·h_k = r_k − Σ_{j=1..k−1} h_j·h_{k−j},
    step by step in Fractions: the definition _taylor_sqrt must match."""
    out = [Fraction(math.isqrt(r[0]))]
    for k in range(1, w + 1):
        acc = Fraction(r[k] if k < len(r) else 0)
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out.append(acc / (2 * out[0]))
    return out


class TestSqrt:
    def test_known(self):
        # sqrt(1 - 4z) has Catalan-related coefficients
        s = as_fractions([1, -4], 7)
        assert s[0] == 1 and s[1] == -2 and s[2] == -2 and s[3] == -4

    @given(radicands)
    def test_square_root_roundtrip(self, r):
        # Σ S_j·S_{k−j} = r_k·(4a)^k: S squares back to the radicand
        s = _taylor_sqrt(r, ORDER)
        for k in range(ORDER + 1):
            r_k = r[k] if k < len(r) else 0
            assert sum(s[j] * s[k - j] for j in range(k + 1)) == r_k * (4 * r[0]) ** k

    @pytest.mark.parametrize("name", sorted(_MODEL_DATA))
    def test_matches_reference_on_builtin_radicands(self, name):
        r = _radicand(_MODEL_DATA[name])
        assert as_fractions(r, 200) == reference_sqrt(r, 200)

    @given(radicands)
    def test_matches_reference(self, r):
        w = len(r) + 2
        assert as_fractions(r, w) == reference_sqrt(r, w)

    def test_refuses_a_remainder(self):
        # a radicand off the integers leaves a remainder, which the integer
        # recurrence refuses rather than rounds
        with pytest.raises(IntegrityError, match="left a remainder"):
            _taylor_sqrt([4, Fraction(1, 3)], 3)

    def test_non_square_constant(self):
        with pytest.raises(IntegrityError, match="is a square"):
            _taylor_sqrt([2, 1], 3)

    @pytest.mark.parametrize("coeffs", [[0, 0, 1], [0, 1], [0, 0, 0], [-1, 2]])
    def test_constant_term_must_be_positive(self, coeffs):
        with pytest.raises(IntegrityError, match="positive constant term"):
            _taylor_sqrt(coeffs, 3)


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
