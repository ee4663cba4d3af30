from fractions import Fraction

import pytest

from gwprofile import builtin_model, genfun
from gwprofile.errors import DomainError, IntegrityError
from gwprofile.genfun import (
    closed_form_series,
    f_table,
    joint_table,
    linear_coefficient,
    measured_singular_coefficient,
    nu_table,
    solve_nu_gf,
)

MODELS = ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]


class TestNu:
    @pytest.mark.parametrize("model_id", MODELS)
    def test_solve_matches_closed_form(self, model_id):
        m = builtin_model(model_id)
        assert solve_nu_gf(m, 25) == closed_form_series(m, 25)

    def test_incomplete_binary_values(self):
        nu = nu_table(builtin_model("incomplete-binary"), 3)
        assert nu[0] == Fraction(2, 5)
        assert nu[1] == Fraction(81, 175)
        assert nu[2] == Fraction(3456, 42875)
        assert nu[3] == Fraction(262656, 10504375)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_is_probability_law(self, model_id):
        nu = nu_table(builtin_model(model_id), 30)
        assert all(x >= 0 for x in nu)
        assert sum(float(x) for x in nu) <= 1.0 + 1e-12

    @pytest.mark.parametrize("model_id", MODELS)
    def test_matches_newton(self, model_id):
        m = builtin_model(model_id)
        assert nu_table(m, 80) == solve_nu_gf(m, 80).coeffs

    def test_matches_newton_at_high_order(self):
        # the order test_kernel's row-sum test takes from nu_table
        m = builtin_model("incomplete-binary")
        assert nu_table(m, 210) == solve_nu_gf(m, 210).coeffs

    @pytest.mark.parametrize("model_id", MODELS)
    def test_certificate_rejects_corrupted_recurrence(self, model_id, monkeypatch):
        # the recurrence run on R with one coefficient off by one yields the
        # square root of another quartic, which the ODE residual catches
        honest = genfun._radical_series

        def corrupted(r, w):
            return honest([r[0], r[1], r[2] + 1, r[3], r[4]], w)

        monkeypatch.setattr(genfun, "_radical_series", corrupted)
        with pytest.raises(IntegrityError, match="ODE residual"):
            nu_table(builtin_model(model_id), 20)

    def test_curve_is_verified_at_runtime(self, monkeypatch):
        # nu_table runs the curve verification: a wrong functional equation
        # for the model makes it raise
        data = dict(genfun._MODEL_DATA["complete-binary"])
        data["r_num"] = {(0, 1): 2, (0, 0): -2}
        monkeypatch.setitem(genfun._MODEL_DATA, "complete-binary", data)
        genfun._verified_curve.cache_clear()
        try:
            with pytest.raises(IntegrityError, match="not invariant"):
                nu_table(builtin_model("complete-binary"), 5)
        finally:
            monkeypatch.undo()
            genfun._verified_curve.cache_clear()

    def test_bad_order(self):
        with pytest.raises(DomainError):
            nu_table(builtin_model("geom-pm1"), -1)


class TestFTable:
    def test_row_zero_is_delta(self):
        nu = nu_table(builtin_model("incomplete-binary"), 6)
        f = f_table(nu, 3, 5)
        assert f[0][0] == 1 and all(f[0][q] == 0 for q in range(1, 6))

    def test_row_one_is_nu(self):
        nu = nu_table(builtin_model("incomplete-binary"), 6)
        f = f_table(nu, 3, 5)
        assert f[1] == list(nu[:6])

    def test_convolution_identity(self):
        nu = nu_table(builtin_model("incomplete-binary"), 8)
        f = f_table(nu, 4, 8)
        # f_{p}(q) = sum_j f_{p-1}(j) nu(q-j)
        for p in range(1, 5):
            for q in range(9):
                assert f[p][q] == sum(f[p - 1][j] * nu[q - j] for j in range(q + 1))

    def test_short_nu_rejected(self):
        nu = nu_table(builtin_model("incomplete-binary"), 3)
        with pytest.raises(DomainError):
            f_table(nu, 2, 5)


class TestJointTable:
    def test_single_excursion_values(self):
        m = builtin_model("incomplete-binary")
        ft = joint_table(m, 1, 2, 2)
        assert ft[1][0][0] == Fraction(1, 4)
        assert ft[1][1][1] == Fraction(1, 4)
        assert ft[1][0][1] == Fraction(1, 16)

    def test_marginal_is_f(self):
        # summing the edge coordinate approaches f_p(q) from below; the
        # critical tail beyond L edges decays like 1/sqrt(L)
        m = builtin_model("incomplete-binary")
        nu = nu_table(m, 10)
        f = f_table(nu, 2, 3)
        short = joint_table(m, 2, 3, 10, cross_check=False)
        long = joint_table(m, 2, 3, 24, cross_check=False)
        for p in range(3):
            for q in range(4):
                gap_short = f[p][q] - sum(short[p][q])
                gap_long = f[p][q] - sum(long[p][q])
                assert 0 <= gap_long <= gap_short
                assert float(gap_long) < 0.05

    def test_convolution_rows(self):
        m = builtin_model("incomplete-binary")
        ft = joint_table(m, 2, 4, 6)
        for q in range(5):
            for l in range(7):
                acc = Fraction(0)
                for q1 in range(q + 1):
                    for l1 in range(l + 1):
                        acc += ft[1][q1][l1] * ft[1][q - q1][l - l1]
                assert ft[2][q][l] == acc


class TestSingular:
    def test_linear_coefficient(self):
        # converges to -1 with a sqrt(1-z) correction
        for model_id in ("geom-pm1", "geom-pm01"):
            m = builtin_model(model_id)
            far = linear_coefficient(m, Fraction(1) - Fraction(1, 10**6))
            near = linear_coefficient(m, Fraction(1) - Fraction(1, 10**10))
            assert abs(far + 1.0) < 2e-3
            assert abs(near + 1.0) < 2e-5

    def test_measured_is_finite(self):
        for model_id in MODELS:
            m = builtin_model(model_id)
            val = measured_singular_coefficient(m, Fraction(1) - Fraction(1, 10**4))
            assert 0.5 < val < 3.0
