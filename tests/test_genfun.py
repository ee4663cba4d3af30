import hashlib
import inspect
import math
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial

import mpmath
import pytest
from hypothesis import given, strategies as st
from test_golden import CUSTOM_MODELS

from gwprofile import builtin_model, genfun
from gwprofile.errors import DomainError, IntegrityError
from gwprofile.genfun import (
    bivariate_fixed_point,
    closed_form_series,
    f_table,
    joint_table,
    linear_coefficient,
    nu_table,
    singular_coefficient,
    solve_nu_gf,
)
from gwprofile.oracle import size_mass

MODELS = ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]


def reference_nu_table(model, order):
    """ν(0..order) on Fractions, as nu_table computed it before it ran on
    integers: h = √R by its holonomic recurrence, then the division
    recurrence of g = (num + coef·h)/den after stripping den's valuation."""
    data = genfun._require_builtin(model)
    r = genfun._radicand(data)
    den = data["den"]
    v = next(j for j, c in enumerate(den) if c)
    d = den[v:]
    w = order + v
    h = [Fraction(math.isqrt(r[0]))]
    inv = 1 / Fraction(2 * r[0])
    for n in range(w):
        acc = 0
        for i in range(1, min(4, n + 1) + 1):
            acc += r[i] * (2 * n + 2 - 3 * i) * h[n + 1 - i]
        h.append(-acc * inv / (n + 1))
    num, coef = data["num"], data["coef"]
    numer = [(num[n] if n < len(num) else 0) + coef * h[n] for n in range(w + 1)]
    g = []
    for k in range(order + 1):
        acc = numer[k + v]
        for j in range(1, len(d)):
            if k >= j:
                acc -= d[j] * g[k - j]
        g.append(acc / d[0])
    return tuple(g)


def radical(r, w):
    """H_0..H_w, H_n = h_n·(4a)^n, of h = √R, by _power as nu_table calls it."""
    s = 4 * r[0]
    b = [x * s**j for j, x in enumerate(r)]
    return genfun._power(b, Fraction(1, 2), w, math.isqrt(r[0]))


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
    def test_taylor_sqrt_is_the_radical_recurrence(self, model_id):
        # two recurrences for h = √R, the Taylor one of h² = R and the one
        # of 2R·h′ = R′·h, give one set of ints
        r = genfun._radicand(genfun._MODEL_DATA[model_id])
        assert genfun._taylor_sqrt(r, 400) == radical(r, 400)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_check_routes_match_at_high_order(self, model_id):
        m = builtin_model(model_id)
        nu = nu_table(m, 400)
        assert closed_form_series(m, 400).coeffs == nu
        assert solve_nu_gf(m, 210).coeffs == nu[:211]

    # sha256 of repr(coeffs) of both check routes at order 40, recorded from
    # the generic series arithmetic they ran on before the recurrences
    PINNED_ROUTES = {
        "geom-pm1": "8a3a64d3da1f495291d58f120e3ac26ee6841111045c13eac0667b1b184e90d8",
        "geom-pm01": "5452a4af5c542056c95fc2d2a3ffb84ee2f696ea92de3c124d8e067847837fe1",
        "incomplete-binary": "53598e90722bd8c0e9a6dcee865d141c39a7f950c8c42903e8b5da012a9dee3a",
        "complete-binary": "5644d265d4117101fbc51e7efc63d577d7f914614dedd35eedfa844422b6c581",
    }

    @pytest.mark.parametrize("model_id", MODELS)
    def test_check_routes_call_no_production_code(self, model_id, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check route called the production route")

        for name in ("_power", "_quotient_series", "_certify", "nu_table"):
            monkeypatch.setattr(genfun, name, refuse)
        m = builtin_model(model_id)
        for route in (closed_form_series, solve_nu_gf):
            digest = hashlib.sha256(repr(route(m, 40).coeffs).encode()).hexdigest()
            assert digest == self.PINNED_ROUTES[model_id], route.__name__

    def test_closed_form_refuses_a_numerator_off_den_valuation(self, monkeypatch):
        # den = 4z − z² vanishes at 0, so num + coef·h must vanish there too
        data = dict(genfun._MODEL_DATA["geom-pm1"], num=(-3, 9, -2))
        monkeypatch.setitem(genfun._MODEL_DATA, "geom-pm1", data)
        with pytest.raises(IntegrityError, match="does not vanish"):
            closed_form_series(builtin_model("geom-pm1"), 5)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_certificate_rejects_corrupted_recurrence(self, model_id, monkeypatch):
        # the recurrence run on R with one coefficient off by one (b_2 off
        # by (4a)^2) yields the square root of another quartic, which the
        # ODE residual catches
        honest = genfun._power

        def corrupted(b, alpha, w, start):
            return honest([b[0], b[1], b[2] + 16 * b[0] ** 2, *b[3:]], alpha, w, start)

        monkeypatch.setattr(genfun, "_power", corrupted)
        with pytest.raises(IntegrityError, match="ODE residual"):
            nu_table(builtin_model(model_id), 20)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_matches_reference(self, model_id):
        m = builtin_model(model_id)
        assert nu_table(m, 400) == reference_nu_table(m, 400)

    def test_radical_recurrence_refuses_a_remainder(self):
        # a radicand off the integers leaves a remainder, which the integer
        # recurrence refuses rather than rounds
        with pytest.raises(IntegrityError, match="left a remainder"):
            radical([4, Fraction(1, 3), 0, 0, 0], 3)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_certificate_rejects_a_corrupted_quotient(self, model_id, monkeypatch):
        honest = genfun._quotient_series

        def corrupted(data, h, order):
            g = honest(data, h, order)
            g[order // 2] += 1
            return g

        monkeypatch.setattr(genfun, "_quotient_series", corrupted)
        with pytest.raises(IntegrityError, match="den·g differs"):
            nu_table(builtin_model(model_id), 20)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_certificate_rejects_another_constant_term(self, model_id, monkeypatch):
        # g is computed honestly; only the g_0 = c0 check ties it to the
        # curve's branch rather than to another constant term
        honest = genfun._verified_curve

        def corrupted(name):
            curve, c0 = honest(name)
            return curve, c0 + Fraction(1, 7)

        monkeypatch.setattr(genfun, "_verified_curve", corrupted)
        with pytest.raises(IntegrityError, match="is not the branch"):
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

    def test_branch_is_verified_at_runtime(self, monkeypatch):
        data = dict(genfun._MODEL_DATA["geom-pm1"])
        data["c0"] = Fraction(1, 2)
        monkeypatch.setitem(genfun._MODEL_DATA, "geom-pm1", data)
        genfun._verified_curve.cache_clear()
        try:
            with pytest.raises(IntegrityError, match="not a simple root"):
                nu_table(builtin_model("geom-pm1"), 5)
        finally:
            monkeypatch.undo()
            genfun._verified_curve.cache_clear()

    def test_bad_order(self):
        for route in (nu_table, closed_form_series, solve_nu_gf):
            with pytest.raises(DomainError, match="order must be >= 0"):
                route(builtin_model("geom-pm1"), -1)


def reference_radical_series(r, w):
    """H_0..H_w, H_n = h_n·(4a)^n, of h = √R for an integer quartic R, as
    nu_table computed them before _power: the recurrence of 2R·h′ = R′·h,
    2a (n+1) H_{n+1} = −Σ_{i=1..4} r_i (2n + 2 − 3i) (4a)^i H_{n+1−i}."""
    a = r[0]
    steps = [r[i] * (4 * a) ** i for i in range(5)]
    h = [math.isqrt(a)]
    for n in range(w):
        acc = 0
        for i in range(1, min(4, n + 1) + 1):
            acc += steps[i] * (2 * n + 2 - 3 * i) * h[n + 1 - i]
        step, rem = divmod(-acc, 2 * a * (n + 1))
        assert not rem
        h.append(step)
    return h


def reference_size_mass(model, edges):
    """oracle.size_mass as it ran Miller's recurrence in its own loop,
    k·B_k = Σ_{j=1..k} ((m+1)j − k)·b_j·B_{k−j} for B = b^m."""
    phi = [model.offspring.prob(k) for k in range(edges + 1)]
    m = edges + 1
    if not phi[0]:
        return Fraction(0)
    c, b = genfun._integer_scale(enumerate(x / phi[0] for x in phi))
    power = [1]
    for k in range(1, edges + 1):
        acc = 0
        for j in range(1, k + 1):
            if b[j]:
                acc += ((m + 1) * j - k) * b[j] * power[k - j]
        coeff, rem = divmod(acc, k)
        assert not rem
        power.append(coeff)
    return phi[0] ** m * Fraction(power[edges], m * c**edges)


series = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=10)


class TestPower:
    @given(series.filter(lambda b: b[0] != 0), st.integers(min_value=0, max_value=5))
    def test_integer_power_is_the_repeated_product(self, b, m):
        w = 8
        want = [1] + [0] * w
        for _ in range(m):
            want = [sum(want[i] * b[k - i] for i in range(max(0, k - len(b) + 1), k + 1))
                    for k in range(w + 1)]
        assert genfun._power(b, m, w, b[0] ** m) == want

    @given(st.integers(min_value=1, max_value=9), series)
    def test_square_root_squares_back(self, root, tail):
        # b(z) = r(4a·z) for an integer r with r_0 = a = root²: √b is integral
        a, w = root * root, 8
        b = [a] + [x * (4 * a) ** j for j, x in enumerate(tail, 1)]
        h = genfun._power(b, Fraction(1, 2), w, root)
        for k in range(w + 1):
            assert sum(h[i] * h[k - i] for i in range(k + 1)) == (b[k] if k < len(b) else 0)

    @pytest.mark.parametrize("model_id", MODELS)
    def test_square_root_matches_reference_at_high_order(self, model_id):
        r = genfun._radicand(genfun._MODEL_DATA[model_id])
        assert radical(r, 3200) == reference_radical_series(r, 3200)

    @pytest.mark.parametrize("name", MODELS + sorted(CUSTOM_MODELS))
    def test_size_mass_matches_reference(self, name):
        model = CUSTOM_MODELS.get(name) or builtin_model(name)
        for edges in range(61):
            assert size_mass(model, edges) == reference_size_mass(model, edges), edges

    def test_refuses_a_remainder(self):
        # √(1 + z) = 1 + z/2 − …: no integer B_1
        with pytest.raises(IntegrityError, match="left a remainder"):
            genfun._power([1, 1], Fraction(1, 2), 3, 1)


def reference_f_table(nu, p_max, q_max):
    """f_p(q) by the direct triple loop f_table ran before it went through
    _convolve: each cell sums f_{p-1}(j)·ν(q − j) over the nonzero f_{p-1}(j)."""
    zero = nu[0] * 0
    one = zero + 1
    rows = [[one] + [zero] * q_max]
    for _ in range(p_max):
        prev = rows[-1]
        row = []
        for q in range(q_max + 1):
            acc = zero
            for j in range(q + 1):
                if prev[j] != zero:
                    acc += prev[j] * nu[q - j]
            row.append(acc)
        rows.append(row)
    return rows


class TestFTable:
    @pytest.mark.parametrize("name", MODELS + ["odd-support"])
    def test_matches_reference_in_value_and_type(self, name):
        # Every cell, for exact and float ν: the same values and the same
        # element types.  The builtins' ν is positive everywhere, so only
        # row 0 has zero cells; ν on {1, 3} also leaves cells that no
        # product reaches (f_p(q) = 0 for q < p or q − p odd).
        if name == "odd-support":
            exact = [Fraction(x, 2) for x in (0, 1, 0, 1)] + [Fraction(0)] * 32
        else:
            exact = nu_table(builtin_model(name), 35)
        for nu in (exact, [float(x) for x in exact]):
            for shape in [(0, 0), (3, 5), (12, 10), (40, 35)]:
                got, want = f_table(nu, *shape), reference_f_table(nu, *shape)
                assert [[(type(x), x) for x in row] for row in got] == [
                    [(type(x), x) for x in row] for row in want
                ], (name, type(nu[0]), shape)

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

    @pytest.mark.parametrize("shape", [(3, -1), (0, -2), (-1, 0), (-1, 3)])
    def test_negative_bounds_rejected(self, shape):
        nu = nu_table(builtin_model("incomplete-binary"), 3)
        with pytest.raises(DomainError, match="table bounds must be >= 0"):
            f_table(nu, *shape)


def reference_excursion_joint_gf(model, l_max):
    """The single-excursion joint law by the recursive Fraction DP that
    _excursion_joint_gf ran before it went bottom-up on integers."""
    off = model.offspring
    disp = model.displacement
    per_child = disp.per_child_support()
    memo = lru_cache(maxsize=None)

    @memo
    def subtree(j, budget):
        if j == 0:
            return {1: Fraction(1)} if budget == 0 else {}
        out = {}
        for d in off.arities_up_to(budget):
            xi = off.prob(d)
            if d == 0:
                if budget == 0:
                    out[0] = out.get(0, Fraction(0)) + xi
                continue
            if per_child is not None:
                for q, w in forest_gf(j, d, budget - d).items():
                    out[q] = out.get(q, Fraction(0)) + xi * w
            else:
                for vec, wv in disp.vectors(d):
                    if any(j + inc < 0 for inc in vec):
                        continue
                    for q, w in vec_forest(j, vec, budget - d).items():
                        out[q] = out.get(q, Fraction(0)) + xi * wv * w
        return out

    def split(first, rest, budget):
        out = {}
        for b1 in range(budget + 1):
            head = first(b1)
            if not head:
                continue
            tail = rest(budget - b1)
            for q1, w1 in head.items():
                for q2, w2 in tail.items():
                    out[q1 + q2] = out.get(q1 + q2, Fraction(0)) + w1 * w2
        return out

    @memo
    def child_gf(j, budget):
        out = {}
        for inc, w in per_child:
            if j + inc >= 0:
                for q, mass in subtree(j + inc, budget).items():
                    out[q] = out.get(q, Fraction(0)) + w * mass
        return out

    @memo
    def forest_gf(j, d, budget):
        if d == 0:
            return {0: Fraction(1)} if budget == 0 else {}
        return split(partial(child_gf, j), partial(forest_gf, j, d - 1), budget)

    @memo
    def vec_forest(j, vec, budget):
        if not vec:
            return {0: Fraction(1)} if budget == 0 else {}
        head, tail = vec[0], vec[1:]
        return split(partial(subtree, j + head), partial(vec_forest, j, tail), budget)

    return [dict(subtree(1, l)) for l in range(l_max + 1)]


def as_fractions(joint):
    """The ``[l]{q: Fraction}`` view of _excursion_joint_gf's (n, c, c_w)."""
    n, c, c_w = joint
    return [
        {q: Fraction(x, c ** (2 * l + 1 - q) * c_w**l) for q, x in enumerate(row) if x}
        for l, row in enumerate(n)
    ]


def reference_joint_table(model, p_max, q_max, l_max):
    """joint_table as it ran over the [l]{q: Fraction} single-excursion law:
    divided by φ₀ = f̃₁(0, 0), or 1 for a model without leaves, rescaled by
    a searched c to integers, convolved on ints, then each cell rebuilt as
    φ₀^p·N/c^l.  The incomplete-binary certificate is left out; these
    tests run it on custom models only."""
    single = reference_excursion_joint_gf(model, l_max)
    cells = [(q, l, w) for l, row in enumerate(single) for q, w in row.items() if w]
    phi0 = single[0].get(0) or Fraction(1)
    c, scaled = genfun._integer_scale((l, w / phi0) for _, l, w in cells)
    base = [[0] * (l_max + 1) for _ in range(max(q_max, l_max) + 1)]
    for (q, l, _), n in zip(cells, scaled):
        base[q][l] = n
    zero = Fraction(0)
    power = [[1] + [0] * l_max] + [[0] * (l_max + 1) for _ in range(q_max)]
    tables = []
    for p in range(p_max + 1):
        if p:
            power = genfun._convolve(power, base, q_max, l_max)
        num = phi0.numerator**p
        dens = [phi0.denominator**p * c**l for l in range(l_max + 1)]
        rows = [zip(row, dens) for row in power]
        tables.append([[Fraction(num * n, d) if n else zero for n, d in r] for r in rows])
    return tables


def leafless_model():
    # ξ = δ₁: f̃₁(0, 0) = ξ(0) = 0, and one excursion is a ±1 walk from 1
    # to its first visit to 0
    from gwprofile.model import parse_model_config

    return parse_model_config(
        {"offspring": {"kind": "finite-table", "table": [0, 1]},
         "displacement": {"kind": "iid-uniform-pm1"}}
    )


def base_table(n, L):
    """The ``[q][l]`` table, q, l <= L, of _excursion_joint_gf's n[l][q]."""
    return [[n[l][q] if q < len(n[l]) else 0 for l in range(L + 1)] for q in range(L + 1)]


def ternary_model():
    # per-arity tables with a zero increment and vectors sharing no suffix
    from gwprofile.model import parse_model_config

    return parse_model_config({
        "offspring": {"kind": "finite-table", "table": ["1/2", "1/6", "1/6", "1/6"]},
        "displacement": {"kind": "per-arity-table", "tables": {
            "1": [[[0], "1/2"], [[-1], "1/4"], [[1], "1/4"]],
            "2": [[[-1, 1], "1/2"], [[1, 0], "1/2"]],
            "3": [[[-1, 0, 1], "1/3"], [[1, 1, -1], "2/3"]],
        }},
    }, name="ternary")


class TestJointTable:
    @pytest.mark.parametrize(
        "model_id, l_max",
        [(m, 10) for m in MODELS] + [("incomplete-binary", 20), ("complete-binary", 20)],
    )
    def test_single_excursion_matches_reference(self, model_id, l_max):
        m = builtin_model(model_id)
        joint = genfun._excursion_joint_gf(m, l_max)
        assert as_fractions(joint) == reference_excursion_joint_gf(m, l_max)

    def test_per_arity_tables_match_reference(self):
        m = ternary_model()
        joint = genfun._excursion_joint_gf(m, 9)
        assert as_fractions(joint) == reference_excursion_joint_gf(m, 9)

    def test_deep_budget_needs_no_recursion(self):
        # the recursive route needed a recursion limit of about 256 at
        # l = 40, and ended in RecursionError on larger tables
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            joint = genfun._excursion_joint_gf(builtin_model("incomplete-binary"), 40)
        finally:
            sys.setrecursionlimit(limit)
        table = as_fractions(joint)
        short = genfun._excursion_joint_gf(builtin_model("incomplete-binary"), 20)
        assert table[:21] == as_fractions(short)
        assert all(0 < sum(row.values()) < 1 for row in table)

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
        short = joint_table(m, 2, 3, 10)
        long = joint_table(m, 2, 3, 24)
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


    @pytest.mark.parametrize("V", list(range(2, 11)) + [20])
    def test_matches_bivariate_fixed_point(self, V):
        # the (V + 1, V) orders of criterion 5, and the benchmark's V = 20
        single = joint_table(builtin_model("incomplete-binary"), 1, V + 1, V)[1]
        assert bivariate_fixed_point(V + 1, V) == single

    def test_certificate_rejects_a_perturbed_cell(self, monkeypatch):
        honest = genfun._excursion_joint_gf

        def perturbed(model, l_max):
            n, c, c_w = honest(model, l_max)
            n[4][1] *= 2
            return n, c, c_w

        monkeypatch.setattr(genfun, "_excursion_joint_gf", perturbed)
        with pytest.raises(IntegrityError, match="fixed-point certificate"):
            joint_table(builtin_model("incomplete-binary"), 2, 6, 6)

    def test_certificate_rejects_a_leaf_count_above_the_edge_count(self, monkeypatch):
        honest = genfun._excursion_joint_gf

        def perturbed(model, l_max):
            n, c, c_w = honest(model, l_max)
            n[3] += [0] * (5 - len(n[3]))
            n[3][4] = 1
            return n, c, c_w

        monkeypatch.setattr(genfun, "_excursion_joint_gf", perturbed)
        with pytest.raises(IntegrityError, match="q > l"):
            joint_table(builtin_model("incomplete-binary"), 2, 6, 6)

    # sha256 of repr(joint_table(model, p_max, q_max, l_max)), recorded from
    # the Fraction-by-Fraction convolution this module used before it
    # convolved on integers
    PINNED = {
        ("geom-pm1", (8, 8, 12)): "167344608103f3c55ed0cf7f74e69e5472b8467cd903192fa1063c46b6c78d58",
        ("geom-pm1", (3, 8, 5)): "db59a699a5a316d3e0088dc48a5144b2aa88a8c210425fd42fecb844c74f60ab",
        ("geom-pm1", (8, 2, 12)): "a2dff77b7f661535fac3d81172003cc4f13de128cf015ee7a43c0e3fa4e6f290",
        ("geom-pm1", (2, 12, 4)): "3d22e4ab74f42c90b79b42305c9834e2fb7785f0fe48e6932088e0cb63027232",
        ("geom-pm01", (8, 8, 12)): "308276ed70c0ea2583d5cd2801ead3e88ab60d47ecbd77b4b3845ac6a007df9a",
        ("geom-pm01", (3, 8, 5)): "3450931b16ed414e251d403f7a87c04c7655355107e0d7e21022e4be1a38516b",
        ("geom-pm01", (8, 2, 12)): "a40179c62ab97b99a3af4ad79475bd32d49ee641c6feefc53cb923f9c801f16d",
        ("geom-pm01", (2, 12, 4)): "f46fd5c55dd0e3d795cb69006c24e6f7dc3463ef2b47b2c2348dac0dc901552c",
        ("incomplete-binary", (8, 8, 12)): "639f2956089f975b8e428029231bae861355cd1e04f5c59984c14241b97d5af9",
        ("incomplete-binary", (3, 8, 5)): "f32b520ed822d6a52a3c1ae26f6655ee7de9786de9fa3e1527932abfc0232862",
        ("incomplete-binary", (8, 2, 12)): "c9a3fb8d92f5af6790bc69c7649fe9504e961d21d3fac79567ea8f8743f3fa10",
        ("incomplete-binary", (2, 12, 4)): "a73500ef8d16bdbe7fe86a7380eb93b374503831b2ccf99d47dd3f6b1a817c7e",
        ("complete-binary", (8, 8, 12)): "edfab227efe226e4f983d9951ff3be951b65b6a8863fc32a53a56b9bfb9b74f7",
        ("complete-binary", (3, 8, 5)): "68adf9e929440c4384e948dae483c0c200330b9ae0fd69723d777f7235a6276d",
        ("complete-binary", (8, 2, 12)): "81e89b76381be499686938d9f577f58b0434caceb48a33ec56978b890d1cca40",
        ("complete-binary", (2, 12, 4)): "71b4fe71436e92a2675d8f5b2851b9d2e4219c36708eb268e58081a40dd25a76",
    }

    @pytest.mark.parametrize("model_id, shape", sorted(PINNED))
    def test_pinned_values(self, model_id, shape):
        table = joint_table(builtin_model(model_id), *shape)
        digest = hashlib.sha256(repr(table).encode()).hexdigest()
        assert digest == self.PINNED[model_id, shape]

    def test_model_without_leaves(self):
        ft = joint_table(leafless_model(), 2, 2, 5)
        assert ft[1][1] == [0, Fraction(1, 2), 0, Fraction(1, 8), 0, Fraction(1, 16)]
        assert ft[2][2] == [0, 0, Fraction(1, 4), 0, Fraction(1, 8), 0]
        assert ft[1][0] == ft[1][2] == [0] * 6

    def test_empty_bounds(self):
        assert joint_table(builtin_model("geom-pm1"), 0, 0, 0) == [[[1]]]

    @pytest.mark.parametrize("model", [ternary_model, leafless_model], ids=["ternary", "leafless"])
    @pytest.mark.parametrize("shape", [(3, 8, 5), (8, 2, 12), (2, 12, 4)])
    def test_custom_models_match_reference(self, model, shape):
        m = model()
        got, want = joint_table(m, *shape), reference_joint_table(m, *shape)
        assert got == want
        assert [type(x) for t in got for r in t for x in r] == [
            type(x) for t in want for r in t for x in r
        ]

    @pytest.mark.parametrize("L", range(41))
    def test_certificate_accepts_the_honest_table(self, L):
        n, c, c_w = genfun._excursion_joint_gf(builtin_model("incomplete-binary"), L)
        assert c_w == 1
        genfun._certify_fixed_point(base_table(n, L), c)

    def test_certificate_checks_every_cell(self):
        L = 6
        n, c, _ = genfun._excursion_joint_gf(builtin_model("incomplete-binary"), L)
        honest = base_table(n, L)
        cells = [(q, l) for q in range(L + 1) for l in range(q, L + 1)]
        assert sum(1 for q, l in cells if honest[q][l]) >= 10
        for q, l in cells:
            table = [list(row) for row in honest]
            table[q][l] = 2 * table[q][l] or 1
            with pytest.raises(IntegrityError, match="fixed-point certificate"):
                genfun._certify_fixed_point(table, c)


def test_exact_layer_does_not_load_sympy():
    # With mpmath blocked any import of it fails: every module, the
    # chi-square tail, both estimators and the kernel test run without it.
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from fractions import Fraction\n"
        "import gwprofile\n"
        "for module in pkgutil.iter_modules(gwprofile.__path__):\n"
        "    importlib.import_module('gwprofile.' + module.name)\n"
        "from gwprofile.cli import main\n"
        "from gwprofile.genfun import joint_table, linear_coefficient, nu_table,"
        " singular_coefficient\n"
        "from gwprofile.stats import chi_square\n"
        "m = gwprofile.builtin_model('incomplete-binary')\n"
        "nu_table(m, 10)\n"
        "joint_table(m, 3, 3, 3)\n"
        "z = 1 - Fraction(1, 10**6)\n"
        "singular_coefficient(m, z), linear_coefficient(m, z)\n"
        "assert chi_square({0: 30, 1: 70}, {0: 0.5, 1: 0.5}).p_value < 1e-4\n"
        "assert main(['stats', '--model', 'builtin:incomplete-binary', '--count', '50',"
        " '--min-visits', '10', '--test-kernel']) == 0\n"
        "assert 'sympy' not in sys.modules and sys.modules['mpmath'] is None\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the kernel test computed p-values
    assert any(line.startswith("test,") and line.split(",")[5]
               for line in proc.stdout.splitlines())


def reference_closed_form_mp(model, z):
    """g(z) from the radical closed form in mpmath, at the caller's working
    precision: with 60 digits, the route the estimators must match."""
    data = genfun._require_builtin(model)
    num = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(data["num"])], z)
    den = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(data["den"])], z)
    coef = mpmath.mpf(data["coef"].numerator) / data["coef"].denominator
    rad = (data["a"] - z) * (1 - z) ** 3
    return (num + coef * mpmath.sqrt(rad)) / den


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
            val = singular_coefficient(m, Fraction(1) - Fraction(1, 10**4))
            assert 0.5 < val < 3.0

    @pytest.mark.parametrize("z_eval", [Fraction(0), Fraction(1), Fraction(3, 2)])
    def test_singular_coefficient_needs_z_in_the_unit_interval(self, z_eval):
        for estimator in (singular_coefficient, linear_coefficient):
            with pytest.raises(DomainError, match=r"\(0, 1\)"):
                estimator(builtin_model("geom-pm1"), z_eval)

    @pytest.mark.parametrize("model_id", MODELS)
    @pytest.mark.parametrize(
        # the points near 1 of criterion 2 and of test_linear_coefficient, and
        # two where 1 - z is not a square, so that the root of 1 - z is inexact
        "z_eval", [1 - Fraction(1, 10**4), 1 - Fraction(1, 10**6), 1 - Fraction(1, 10**10),
                   1 - Fraction(2, 10**5), Fraction(1, 3)],
        ids=["1-1e-4", "1-1e-6", "1-1e-10", "1-2e-5", "1/3"],
    )
    def test_estimators_match_reference(self, model_id, z_eval):
        m = builtin_model(model_id)
        with mpmath.workdps(60):
            z = mpmath.mpf(z_eval.numerator) / z_eval.denominator
            g = reference_closed_form_mp(m, z)
            singular = float((g - 1 + (1 - z)) / (1 - z) ** mpmath.mpf("1.5"))
            linear = float((g - 1) / (1 - z))
        assert singular_coefficient(m, z_eval) == singular
        assert linear_coefficient(m, z_eval) == linear
