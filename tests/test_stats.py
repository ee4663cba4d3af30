import mpmath
import pytest

from gwprofile import builtin_model, decode, edge_profile
from gwprofile.errors import DomainError
from gwprofile.stats import (
    TransitionCensus,
    _gamma_p_value,
    add_profile_transitions,
    bonferroni,
    chi_square,
    fold_tail,
)


def reference_gamma_p_value(statistic, dof):
    """The chi-square tail as mpmath's regularized upper incomplete gamma
    function: the definition the integer-dof series must match."""
    if statistic <= 0.0:
        return 1.0
    return float(
        mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2, mpmath.inf,
                        regularized=True)
    )


class TestGammaPValue:
    def test_matches_reference(self):
        # from near 0 through each law's centre into its deep tail, where
        # p falls to about 1e-220 at dof 1
        for dof in range(1, 401):
            for statistic in (1e-9, dof / 4, dof / 2, dof - 1, dof, 2 * dof, 4 * dof,
                              dof + 500, dof + 1000):
                want = reference_gamma_p_value(statistic, dof)
                got = _gamma_p_value(statistic, dof)
                assert abs(got - want) <= 1e-12 * want, (statistic, dof, got, want)

    @pytest.mark.parametrize("dof", [1, 2, 7])
    def test_nonpositive_statistic_is_certain(self, dof):
        assert _gamma_p_value(0.0, dof) == _gamma_p_value(-1.5, dof) == 1.0


class TestChiSquare:
    def test_uniform_exact(self):
        res = chi_square(
            {"a": 25, "b": 25, "c": 25, "d": 25},
            {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25},
        )
        assert res.statistic == 0.0 and res.p_value == 1.0 and res.dof == 3

    def test_proportional_is_zero(self):
        res = chi_square({"x": 30, "y": 60, "z": 90}, {"x": 1 / 6, "y": 2 / 6, "z": 3 / 6})
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_single_cell_skipped(self):
        res = chi_square({"only": 50}, {"only": 1.0})
        assert res.dof == 0 and res.p_value is None

    def test_pooling(self):
        # two tiny expected cells merge; dof shrinks accordingly
        obs = {"a": 96, "b": 2, "c": 2}
        exp = {"a": 0.96, "b": 0.02, "c": 0.02}
        res = chi_square(obs, exp)
        assert res.cells == 2 and res.dof == 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            chi_square({}, {"a": 1.0})

    def test_zero_expected_rejected(self):
        with pytest.raises(DomainError):
            chi_square({"a": 5, "b": 5}, {"a": 1.0})

    def test_detects_wrong_law(self):
        obs = {"a": 900, "b": 100}
        res = chi_square(obs, {"a": 0.5, "b": 0.5})
        assert res.p_value < 1e-10

    def test_uncovered_tail_cell(self):
        res = chi_square({"a": 500, "b": 480}, {"a": 0.5, "b": 0.49})
        assert res.cells == 3

    def test_pools_every_small_cell(self):
        # ten cells of expected count 1 form one bucket of 10 next to the 90
        obs = {("small", i): 1 for i in range(10)} | {"big": 90}
        exp = {("small", i): 0.01 for i in range(10)} | {"big": 0.9}
        res = chi_square(obs, exp)
        assert res.cells == 2 and res.dof == 1


class TestFoldTail:
    def test_folds_beyond_cutoff(self):
        obs, exp = fold_tail({0: 5, 1: 3, 7: 2}, {0: 0.5, 1: 0.4})
        assert obs == {0: 5, 1: 3, "tail": 2}
        assert abs(exp["tail"] - 0.1) < 1e-12


class TestBonferroni:
    def test_all_pass(self):
        assert bonferroni([0.5, 0.2, None], 0.1)

    def test_one_fails(self):
        assert not bonferroni([0.5, 0.01], 0.1)

    def test_empty(self):
        assert bonferroni([None, None], 0.001)


class TestCensus:
    def test_merge_associative(self):
        a, b, c = TransitionCensus(), TransitionCensus(), TransitionCensus()
        a.add((1, 0), (0, 0), 3)
        b.add((1, 0), (1, 1), 2)
        c.add((2, 0), (0, 0), 1)
        left = TransitionCensus().merge(a).merge(b).merge(c)
        bc = TransitionCensus().merge(b).merge(c)
        right = TransitionCensus().merge(a).merge(bc)
        assert left.counts == right.counts
        assert left.total() == 6

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            TransitionCensus().add((0, 0), (0, 0), -1)

    def test_add_profile_transitions(self):
        census = TransitionCensus()
        add_profile_transitions(census, {1: 2, 2: 1}, {2: 1}, range(1, 3))
        assert census.row((2, 0)) == {(1, 1): 1}
        assert census.row((1, 1)) == {(0, 0): 1}

    def test_absorption_rows(self):
        census = TransitionCensus()
        for text in ("0()", "0(+())"):
            prof = edge_profile(decode(text))
            add_profile_transitions(census, prof.x_plus, prof.x_minus, range(1, 3))
        assert census.row((0, 0)) == {(0, 0): 3}
        assert census.row((1, 0)) == {(0, 0): 1}
