from fractions import Fraction
from math import comb

import pytest

from gwprofile import builtin_model
from gwprofile.errors import DomainError
from gwprofile.genfun import f_table, joint_table, nu_table
from gwprofile.kernel import (
    _ftilde_at,
    _lookup,
    check_cond_state,
    check_state,
    cond_row,
    cond_transition_prob,
    count_profile,
    free_row,
    harmonic_H,
    kernel_row,
    transition_prob,
)
from gwprofile.oracle import enumerate_trees, exact_chain_law
from gwprofile.tree import edge_profile

BINARY = builtin_model("incomplete-binary")


def binary_profiles(edges):
    """The distinct (plus, check) profiles of incomplete-binary trees with
    ``edges`` edges, in the form ``count_profile`` takes."""
    profiles = set()
    for t, _ in enumerate_trees(BINARY, edges).items:
        prof = edge_profile(t)
        mmax = max(list(prof.x_plus) + [0])
        cmax = max(list(prof.check_minus) + [0])
        profiles.add((
            tuple(
                (prof.x_plus.get(k, 0), prof.x_minus.get(k, 0))
                for k in range(1, mmax + 1)
            ),
            tuple(
                (prof.check_plus.get(k, 0), prof.check_minus.get(k, 0))
                for k in range(1, cmax + 1)
            ),
        ))
    return profiles


def tables(p_max=8, q_max=8):
    nu = nu_table(BINARY, q_max + 2)
    return f_table(nu, p_max, q_max)


class TestStates:
    def test_valid(self):
        assert check_state(2, 3) == (2, 3)
        assert check_cond_state(0, 0, 4, 4) == (0, 0, 4)

    def test_invalid(self):
        with pytest.raises(DomainError):
            check_state(0, 1)
        with pytest.raises(DomainError):
            check_cond_state(0, 0, 2, 4)
        with pytest.raises(DomainError):
            check_cond_state(1, 0, 5, 4)


class TestFreeKernel:
    def test_absorption_cell(self):
        f = tables()
        assert transition_prob(f, (1, 0), (0, 0)) == Fraction(5, 8)

    def test_absorbing_state(self):
        f = tables()
        assert transition_prob(f, (0, 0), (0, 0)) == 1
        assert transition_prob(f, (0, 0), (1, 0)) == 0

    def test_row_sums_to_one(self):
        nu = [float(x) for x in nu_table(BINARY, 210)]
        f = f_table(nu, 215, 205)
        for p, q in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            total = 0.0
            for s in range(200):
                for r in range(p + s + 1):
                    if r == 0 and s > 0:
                        continue
                    state = (r, s) if r > 0 else (0, 0)
                    total += float(transition_prob(f, (p, q), state))
            assert abs(total - 1.0) < 1e-9, (p, q, total)

    def test_unreachable_state(self):
        f = tables()
        with pytest.raises(DomainError):
            transition_prob([[1], [0]], (1, 0), (0, 0))


class TestConditionedKernel:
    def test_mass_coordinate_pinned(self):
        V = 4
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        # w must equal v + p + q
        assert cond_transition_prob(ftilde, V, (1, 0, 0), (1, 0, 2)) == 0
        # absorption requires all V edges accounted for: v + p + q = V
        assert cond_transition_prob(ftilde, V, (1, 0, 0), (0, 0, V)) == 0
        assert cond_transition_prob(ftilde, V, (1, 0, V - 1), (0, 0, V)) > 0

    def test_rows_sum_to_one(self):
        V = 5
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        law = exact_chain_law(V)
        seen = {s for path in law for s in path[:-1]}
        for p, q, v in seen:
            w = v + p + q
            total = Fraction(0)
            for s in range(V + 1):
                for r in range(p + s + 1):
                    tgt = (r, s, w) if r > 0 else (0, 0, V)
                    if r == 0 and (s > 0 or w != V):
                        continue
                    total += cond_transition_prob(ftilde, V, (p, q, v), tgt)
            assert total == 1, (p, q, v)

    def test_h_transform_links_kernels(self):
        # conditioned kernel = free kernel reweighted by the harmonic ratio
        V = 5
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        nu = nu_table(BINARY, V + 2)
        f = f_table(nu, 2 * V + 2, V + 1)
        law = exact_chain_law(V)
        seen = {s for path in law for s in path[:-1]}
        for p, q, v in seen:
            if p == 0:
                continue
            w = v + p + q
            h_from = harmonic_H(f, ftilde, V, (p, q, v))
            for s in range(V + 1):
                for r in range(p + s + 1):
                    tgt = (r, s, w) if r > 0 else (0, 0, V)
                    if r == 0 and (s > 0 or w != V):
                        continue
                    lhs = cond_transition_prob(ftilde, V, (p, q, v), tgt)
                    h_to = harmonic_H(f, ftilde, V, tgt)
                    free = transition_prob(f, (p, q), (tgt[0], tgt[1]))
                    if h_from != 0:
                        assert lhs == free * h_to / h_from, ((p, q, v), tgt)


class TestKernelRow:
    def test_targets(self):
        assert kernel_row(0, 5) == [(0, 0)]
        assert kernel_row(1, 1) == [(0, 0), (1, 0), (1, 1), (2, 1)]
        assert kernel_row(2, 0) == [(0, 0), (1, 0), (2, 0)]

    def test_covers_the_row(self):
        # every target with positive probability and s <= smax is listed
        f = tables(12, 10)
        for p, q in [(1, 0), (2, 1), (3, 3)]:
            row = kernel_row(p, 3)
            for s in range(4):
                for r in range(p + s + 2):
                    if transition_prob(f, (p, q), (r, s) if r else (0, 0)) > 0:
                        assert ((r, s) if r else (0, 0)) in row


def cond_states(V):
    """Every valid conditioned state with q <= V + 1."""
    yield 0, 0, V
    for p in range(1, V + 2):
        for q in range(V + 2):
            for v in range(V + 1):
                yield p, q, v


class TestRows:
    def test_free_row_is_the_nonzero_cells_of_kernel_row(self):
        exact = tables(12, 10)
        floats = f_table([float(x) for x in nu_table(BINARY, 12)], 12, 10)
        for f in (exact, floats):
            for state in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 0)]:
                for smax in (0, 3, 6):
                    cells = [(to, transition_prob(f, state, to))
                             for to in kernel_row(state[0], smax)]
                    assert free_row(f, state, smax) == [c for c in cells if c[1] != 0]

    def test_cond_row_is_the_nonzero_cells_of_the_pinned_targets(self):
        for V in range(7):
            ftilde = joint_table(BINARY, V + 1, V + 1, V)
            for p, q, v in cond_states(V):
                if _ftilde_at(ftilde, p, q, V - v - p) == 0:
                    continue
                for smax in range(V + 2):
                    cells = []
                    for r, s in kernel_row(p, min(smax, V)):
                        to = (r, s, v + p + q) if r else (0, 0, V)
                        cells.append((to, cond_transition_prob(ftilde, V, (p, q, v), to)))
                    row = cond_row(ftilde, V, (p, q, v), smax)
                    assert row == [c for c in cells if c[1] != 0], (V, p, q, v, smax)
                assert sum(prob for _, prob in cond_row(ftilde, V, (p, q, v), V)) == 1

    def test_cond_row_refuses_an_unreachable_start(self):
        refused = 0
        for V in range(9):
            ftilde = joint_table(BINARY, V + 1, V + 1, V)
            for p, q, v in cond_states(V):
                if _ftilde_at(ftilde, p, q, V - v - p) != 0:
                    continue
                with pytest.raises(DomainError, match=f"unreachable with {V} edges"):
                    cond_row(ftilde, V, (p, q, v), V)
                refused += 1
        assert refused > 0


def float_tables(table):
    """A nested table with every cell converted to float."""
    if isinstance(table, list):
        return [float_tables(row) for row in table]
    return float(table)


def reference_absorption(f, p, q):
    """P[(p, q) -> (0, 0)] with f_0(s) = [s = 0] written out, as the kernel
    read it before it took row 0 from the table."""
    if p == 0:
        return Fraction(1)
    return Fraction(p * comb(p, q), p * 4**p) * Fraction(1) / f[p][q]


def reference_cond_absorption(ftilde, V, p, q, v):
    """P_V[(p, q, v) -> (0, 0, V)] with f~_0(q, l) = [q = l = 0] written
    out, as the kernel read it before it took row 0 from the table."""
    if p == 0:
        return Fraction(1)
    if v + p + q != V:
        return Fraction(0)
    return Fraction(p * comb(p, q), p * 4**p) * Fraction(1) / ftilde[p][q][V - v - p]


def same(got, want):
    return (type(got), got) == (type(want), want)


class TestTableRows:
    def test_cell_past_the_table_reads_zero(self):
        # The float table of the stats pipeline: rows with p + s > 40 are
        # past its end, and read 0 without raising.
        f = f_table([float(x) for x in nu_table(BINARY, 40)], 40, 35)
        assert _lookup(f, 41, 0) == 0 and _lookup(f, 3, 36) == 0
        for (p, q), s in [((1, 0), 40), ((5, 2), 36), ((20, 3), 30), ((3, 1), 38)]:
            assert transition_prob(f, (p, q), (p + s, s)) == 0
            assert all(to[1] <= 35 for to, _ in free_row(f, (p, q), s))

    def test_negative_index_reads_zero(self):
        # A negative index reads 0, not the cell at that offset from the end.
        f = f_table(nu_table(BINARY, 5), 3, 5)
        assert f[1][-1] == Fraction(526411008, 90075015625)
        assert same(_lookup(f, 1, -1), Fraction(0)) and same(_lookup(f, -1, 2), Fraction(0))
        ftilde = joint_table(BINARY, 3, 3, 3)
        assert ftilde[-1][1][3] == Fraction(15, 512) and ftilde[2][1][-1] == Fraction(3, 64)
        assert same(_ftilde_at(ftilde, -1, 1, 3), Fraction(0))
        assert same(_lookup(ftilde, 2, 1, -1), Fraction(0))

    def test_absorption_reads_row_zero(self):
        float_nu = [float(x) for x in nu_table(BINARY, 40)]
        grids = [tables(), tables(12, 10), f_table(float_nu, 12, 10), f_table(float_nu, 40, 35)]
        states = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (3, 3), (4, 0)]
        for f in grids:
            assert f[0] == [1] + [0] * (len(f[0]) - 1)
            for p, q in states:
                got = transition_prob(f, (p, q), (0, 0))
                assert same(got, reference_absorption(f, p, q)), (p, q)

    def test_conditioned_absorption_reads_row_zero(self):
        checked = 0
        for V in range(7):
            exact = joint_table(BINARY, V + 1, V + 1, V)
            f = f_table(nu_table(BINARY, V + 2), 2 * V + 2, V + 1)
            for ftilde, ff in ((exact, f), (float_tables(exact), float_tables(f))):
                for q in range(V + 3):
                    for l in range(-1, V + 3):
                        want = Fraction(1) if q == l == 0 else Fraction(0)
                        assert _ftilde_at(ftilde, 0, q, l) == want
                assert same(harmonic_H(ff, ftilde, V, (0, 0, V)), Fraction(1))
                for p, q, v in cond_states(V):
                    if _ftilde_at(ftilde, p, q, V - v - p) == 0:
                        continue
                    got = cond_transition_prob(ftilde, V, (p, q, v), (0, 0, V))
                    want = reference_cond_absorption(ftilde, V, p, q, v)
                    assert same(got, want), (V, p, q, v)
                    checked += want != 0
        assert checked > 0


def reference_count_product(plus, check):
    """The count's product written out with its own binomials, for a
    profile whose every level up to the top of each half is occupied."""
    halves = ([tuple(x) for x in plus], [(qc, pc) for pc, qc in check])

    def at(seq, k):  # 1-based, zero beyond range
        return seq[k - 1] if 1 <= k <= len(seq) else (0, 0)

    (p1, q1), (qc1, pc1) = (at(half, 1) for half in halves)
    m0 = pc1 + q1 + 1
    card = Fraction(comb(m0, p1) * comb(m0, qc1), m0)
    for half in halves:
        for j in range(1, len(half) + 1):
            p_j, q_j = at(half, j)
            p_n, q_n = at(half, j + 1)
            mj = p_j + q_n
            card *= Fraction(p_j, mj) * comb(mj, p_n) * comb(mj, q_j)
    return card


class TestCountProfile:
    def test_matches_reference_product(self):
        # every profile of the 2,055 incomplete-binary trees with <= 7 edges
        profiles = set().union(*(binary_profiles(e) for e in range(0, 8)))
        assert len(profiles) == 740
        for plus, check in profiles:
            assert count_profile(plus, check) == reference_count_product(plus, check)

    def test_one_edge_up(self):
        assert count_profile([(1, 0)], []) == 1

    def test_state_constraint(self):
        assert count_profile([(0, 1)], []) == 0

    def test_non_prefix_support(self):
        with pytest.raises(DomainError):
            count_profile([(0, 0), (1, 0)], [])

    def test_total_mass_over_trees(self):
        # summing card * 4^{-(1+edges)} over all profiles of <=3-edge trees
        # recovers the total 4^{-V-1} masses
        total = Fraction(0)
        for e in range(0, 4):
            for t, wgt in enumerate_trees(BINARY, e).items:
                total += wgt
        acc = Fraction(0)
        for plus, check in set().union(*(binary_profiles(e) for e in range(0, 4))):
            edges = sum(a + b for a, b in plus) + sum(a + b for a, b in check)
            acc += count_profile(plus, check) * Fraction(1, 4 ** (1 + edges))
        assert acc == total

    def test_reflection_swaps_the_halves(self):
        # Reflecting a tree's labels swaps the halves of its profile and up
        # with down in each; the reflected trees are binary trees too.
        def swap(half):
            return tuple((b, a) for a, b in half)

        for e in range(0, 7):
            for plus, check in binary_profiles(e):
                assert count_profile(plus, check) == count_profile(
                    swap(check), swap(plus)
                ), (plus, check)
