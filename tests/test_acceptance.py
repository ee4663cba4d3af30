"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (pytest -v adds the
pass/fail verdict per criterion).  Statistical criteria run at the fixed
seed 2026; every threshold is stated in the test body.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from gwprofile import builtin_model, edge_profile, encode
from gwprofile.errors import ResourceLimitError
from gwprofile.excursion import decompose, reconstruct
from gwprofile.genfun import (
    closed_form_series,
    f_table,
    joint_table,
    linear_coefficient,
    nu_table,
    singular_coefficient,
    solve_nu_gf,
)
from gwprofile.kernel import (
    cond_transition_prob,
    count_profile,
    kernel_row,
    transition_prob,
)
from gwprofile.maps import map_to_tree, tree_to_map, verify_profile_relations
from gwprofile.oracle import (
    enumerate_bicoloured_forests,
    enumerate_marked_forests,
    enumerate_trees,
    exact_chain_law,
    verify_markov_exact,
)
from gwprofile.sampler import (
    Sampler,
    SamplerConfig,
    make_rng,
    sample_incomplete_binary_profile,
)
from gwprofile.stats import (
    TransitionCensus,
    add_profile_transitions,
    chi_square,
    fold_tail,
)

MODELS = ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]
BINARY = builtin_model("incomplete-binary")
SEED = 2026


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def test_criterion_01_generating_functions():
    """Curve-solved first-hit law equals the radical closed form, order 40."""
    t0 = time.time()
    for model_id in MODELS:
        m = builtin_model(model_id)
        assert solve_nu_gf(m, 40) == closed_form_series(m, 40), model_id
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: 4 models, order 40, {elapsed:.2f}s")


def test_criterion_02_singular_expansion():
    """Measured singular coefficients at z = 1-1e-4 within 1e-3 of the
    stated constants; linear coefficient -1 within 1e-3 at z = 1-1e-6.

    The measured quantity carries an intrinsic Theta((1-z)^(1/2))
    correction of order 1e-2 at z = 1-1e-4, so the stated tolerance is
    not attainable by any correct implementation; the test states the
    criterion faithfully and is expected to fail.
    """
    z4 = Fraction(1) - Fraction(1, 10**4)
    z6 = Fraction(1) - Fraction(1, 10**6)
    failures = []
    for model_id, target in [("geom-pm1", 2 / math.sqrt(3)), ("geom-pm01", math.sqrt(2))]:
        m = builtin_model(model_id)
        got = singular_coefficient(m, z4)
        if abs(got - target) >= 1e-3:
            failures.append(f"{model_id}: {got:.5f} vs {target:.5f}")
        lin = linear_coefficient(m, z6)
        if abs(lin + 1.0) >= 1e-3:
            failures.append(f"{model_id} linear: {lin:.6f}")
    assert not failures, "; ".join(failures)
    print("CRITERION 2 PASS")


def test_criterion_03_counting_lemma():
    """Exhaustive bicoloured-forest counts equal q!(p-1)!n for p+q <= 7."""
    t0 = time.time()
    cases = 0
    for p in range(1, 8):
        for q in range(0, 8 - p):
            for n in range(1, p + 1):
                for n_minus in _compositions(p - n, q):
                    for n_plus in _compositions(q, p):
                        got = enumerate_bicoloured_forests(n, n_plus, n_minus)
                        want = math.factorial(q) * math.factorial(p - 1) * n
                        assert got == want, (n, n_plus, n_minus, got, want)
                        cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 3 PASS: {cases} tuples, {elapsed:.1f}s")


def test_criterion_04_marked_forest_joint_law():
    """Exhaustive marked-forest law equals the closed form for p<=3, s<=4."""
    t0 = time.time()
    nu = nu_table(BINARY, 10)
    f = f_table(nu, 8, 8)
    cells = 0
    for p in range(1, 4):
        for s in range(0, 5):
            law = enumerate_marked_forests(nu, p, s)
            for q in range(p + s + 1):
                for r in range(p + s + 1):
                    fr = f[r][s] if r > 0 else (Fraction(1) if s == 0 else Fraction(0))
                    want = (
                        Fraction(p, p + s)
                        * Fraction(1, 4 ** (p + s))
                        * comb(p + s, q)
                        * comb(p + s, r)
                        * fr
                    )
                    assert law.get((q, r), Fraction(0)) == want, (p, s, q, r)
                    cells += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 4 PASS: {cells} cells, {elapsed:.1f}s")


def test_criterion_05_conditioned_kernel_exact():
    """For V in 2..10 the exhaustive path law is exactly Markov with the
    conditioned closed-form kernel."""
    t0 = time.time()
    for V in range(2, 11):
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        law = exact_chain_law(V)
        rep = verify_markov_exact(
            law, V, transition=lambda s, t, ft=ftilde, vv=V: cond_transition_prob(ft, vv, s, t)
        )
        assert rep.ok, (V, rep.discrepancies[:3])
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 5 PASS: V=2..10 exact, {elapsed:.1f}s")


def _binary_census(n_trees, seed, vertex_cap):
    rng = make_rng(SamplerConfig(seed=seed, vertex_cap=vertex_cap))
    census = TransitionCensus()
    capped = 0
    for _ in range(n_trees):
        prof = sample_incomplete_binary_profile(rng, vertex_cap)
        if prof is None:
            capped += 1
            continue
        xp, xm, _, _ = prof
        xpd = {i: v for i, v in enumerate(xp) if i >= 1 and v}
        xmd = {i: v for i, v in enumerate(xm) if i >= 1 and v}
        top = max(list(xpd) + list(xmd) + [1])
        add_profile_transitions(census, xpd, xmd, range(1, top + 1))
    return census, capped


def test_criterion_06_unconditioned_kernel_monte_carlo():
    """1e5 sampled binary trees: every chain row with >= 500 visits matches
    the closed-form kernel (chi-square p > 0.001); the absorption
    frequency from (1,0) is 0.625 +/- 0.01; under 2 minutes."""
    t0 = time.time()
    census, capped = _binary_census(10**5, SEED, 10**5)

    nu = [float(x) for x in nu_table(BINARY, 40)]
    smax = 30
    f = f_table(nu, smax + 20, smax + 5)
    rows_tested = 0
    for from_state in census.rows():
        if from_state == (0, 0) or census.row_total(from_state) < 500:
            continue
        expected = {}
        for state in kernel_row(from_state[0], smax):
            prob = float(transition_prob(f, from_state, state))
            if prob > 0:
                expected[state] = prob
        res = chi_square(census.row(from_state), expected)
        if res.p_value is not None:
            assert res.p_value > 0.001, (from_state, res)
        rows_tested += 1

    row10 = census.row((1, 0))
    freq = row10.get((0, 0), 0) / census.row_total((1, 0))
    assert abs(freq - 0.625) < 0.01, freq
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"CRITERION 6 PASS: {rows_tested} rows, (1,0)->(0,0)={freq:.4f}, "
        f"{capped} capped, {elapsed:.1f}s"
    )


def test_criterion_07_decomposition_round_trip():
    """reconstruct(decompose(t, m)) == t on all trees with <= 6 edges of
    all four models at every level, and on 1e4 samples per model."""
    t0 = time.time()
    exhaustive = 0
    for model_id in MODELS:
        model = builtin_model(model_id)
        for e in range(0, 7):
            for t, _ in enumerate_trees(model, e).items:
                span = max([abs(l) for l in t.labels] + [1])
                for m in list(range(1, span + 1)) + list(range(-span, 0)):
                    assert reconstruct(decompose(t, m)) == t, (model_id, encode(t), m)
                    exhaustive += 1
    sampled = 0
    for model_id in MODELS:
        model = builtin_model(model_id)
        s = Sampler(model, SamplerConfig(seed=SEED, vertex_cap=10**4))
        done = 0
        while done < 10**4:
            try:
                t = s.sample_tree()
            except ResourceLimitError:
                continue
            done += 1
            labels = t.labels
            levels = {1, -1, max(max(labels), 1), min(min(labels), -1)}
            for m in levels:
                assert reconstruct(decompose(t, m)) == t, (model_id, encode(t), m)
                sampled += 1
    elapsed = time.time() - t0
    print(
        f"CRITERION 7 PASS: {exhaustive} exhaustive + {sampled} sampled "
        f"round trips, {elapsed:.1f}s"
    )


def test_criterion_08_forest_law():
    """Excursion-forest offspring histograms from 1e5 geom-pm1 trees at
    m = 1 match the first-hit law at even and odd heights (chi-square
    p > 0.001).

    Tested on forest roots (height 0) and their children (height 1):
    these counts are multinomial given their totals, unlike a pool over
    all heights whose layer sizes are determined by the previous layer.
    """
    t0 = time.time()
    m = builtin_model("geom-pm1")
    s = Sampler(m, SamplerConfig(seed=SEED, vertex_cap=10**5))
    even, odd = Counter(), Counter()
    capped = 0
    for _ in range(10**5):
        try:
            t = s.sample_tree()
        except ResourceLimitError:
            capped += 1
            continue
        f = decompose(t, 1).forest
        for r in f.roots:
            even[len(f.children[r])] += 1
            for c in f.children[r]:
                odd[len(f.children[c])] += 1
    nu = [float(x) for x in nu_table(m, 80)]
    expected = {k: p for k, p in enumerate(nu) if p > 0}
    p_values = []
    for counts in (even, odd):
        obs, exp = fold_tail(counts, expected)
        res = chi_square(obs, exp)
        assert res.p_value is not None and res.p_value > 0.001, res
        p_values.append(res.p_value)
    elapsed = time.time() - t0
    print(
        f"CRITERION 8 PASS: even p={p_values[0]:.3f}, odd p={p_values[1]:.3f}, "
        f"{capped} capped, {elapsed:.0f}s"
    )


def test_criterion_09_schaeffer_bijection():
    """Exact round trip tree <-> pointed quadrangulation on every tree
    with <= 6 edges x 2 orientations and on 1e4 samples; ball-profile
    relations hold with zero mismatches and even perimeters on all maps
    with <= 5 edges x 2 orientations and on 500 sampled maps; < 5 min."""
    t0 = time.time()
    model = builtin_model("geom-pm01")
    roundtrips = 0
    relations = 0
    for e in range(1, 7):
        for t, _ in enumerate_trees(model, e).items:
            for bit in (0, 1):
                q = tree_to_map(t, bit)
                assert map_to_tree(q) == (t, bit), (encode(t), bit)
                roundtrips += 1
                if e <= 5:
                    rep = verify_profile_relations(q)
                    assert rep.ok, (encode(t), bit, rep.mismatches[:2])
                    relations += 1
    s = Sampler(model, SamplerConfig(seed=SEED, vertex_cap=3000))
    for i in range(10**4):
        q = s.sample_quadrangulation()
        t, bit = map_to_tree(q)
        q2 = tree_to_map(t, bit)
        assert (
            q2.alpha == q.alpha
            and q2.sigma == q.sigma
            and q2.root_dart == q.root_dart
            and q2.pointed_vertex == q.pointed_vertex
        )
        roundtrips += 1
        if i < 500:
            rep = verify_profile_relations(q)
            assert rep.ok, rep.mismatches[:2]
            relations += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"CRITERION 9 PASS: {roundtrips} round trips, {relations} profile "
        f"checks, {elapsed:.0f}s"
    )


def test_criterion_10_profile_enumeration():
    """The product formula counts binary trees by vertical edge profile
    exactly, for every profile realized with <= 5 edges."""
    t0 = time.time()
    profiles = 0
    for e in range(0, 6):
        groups = {}
        for t, _ in enumerate_trees(BINARY, e).items:
            prof = edge_profile(t)
            mmax = max(list(prof.x_plus) + [0])
            cmax = max(list(prof.check_minus) + [0])
            key = (
                tuple(
                    (prof.x_plus.get(k, 0), prof.x_minus.get(k, 0))
                    for k in range(1, mmax + 1)
                ),
                tuple(
                    (prof.check_plus.get(k, 0), prof.check_minus.get(k, 0))
                    for k in range(1, cmax + 1)
                ),
            )
            groups[key] = groups.get(key, 0) + 1
        for (plus, check), want in groups.items():
            assert count_profile(plus, check) == want, (plus, check)
            profiles += 1
    elapsed = time.time() - t0
    print(f"CRITERION 10 PASS: {profiles} profiles, {elapsed:.1f}s")


def test_criterion_11_negative_controls():
    """Each exact suite of criteria 3-5 detects a deliberately corrupted
    formula.

    Mutations: (3) count compared against q! p! n instead of q!(p-1)! n
    (first differs at p = 2); (4) joint law with C(p+s, q+1) in place of
    C(p+s, q); (5) conditioned kernel with the excursion edge budget
    V - w - r shifted by -1.
    """
    # corrupted counting formula must disagree somewhere with p+q <= 4
    mismatch = False
    for p in range(1, 5):
        for q in range(0, 5 - p):
            for n in range(1, p + 1):
                for n_minus in _compositions(p - n, q):
                    for n_plus in _compositions(q, p):
                        got = enumerate_bicoloured_forests(n, n_plus, n_minus)
                        wrong = math.factorial(q) * math.factorial(p) * n
                        if got != wrong:
                            mismatch = True
    assert mismatch

    # corrupted joint-law closed form must disagree for some cell
    nu = nu_table(BINARY, 8)
    f = f_table(nu, 6, 6)
    mismatch = False
    for p, s in [(1, 1), (2, 2)]:
        law = enumerate_marked_forests(nu, p, s)
        for q in range(p + s + 1):
            for r in range(p + s + 1):
                fr = f[r][s] if r > 0 else (Fraction(1) if s == 0 else Fraction(0))
                wrong = (
                    Fraction(p, p + s)
                    * Fraction(1, 4 ** (p + s))
                    * comb(p + s, q + 1)
                    * comb(p + s, r)
                    * fr
                )
                if law.get((q, r), Fraction(0)) != wrong:
                    mismatch = True
    assert mismatch

    # corrupted conditioned kernel must produce discrepancies at V = 5
    V = 5
    ftilde = joint_table(BINARY, V + 1, V + 1, V)

    def corrupted(state, target):
        from gwprofile.kernel import _ftilde_at

        p, q, v = state
        r, s, w = target
        if p == 0:
            return Fraction(1) if target == (0, 0, V) else Fraction(0)
        if w != v + p + q:
            return Fraction(0)
        denom = _ftilde_at(ftilde, p, q, V - v - p)
        num = _ftilde_at(ftilde, r, s, V - w - r - 1)
        return (
            Fraction(p, p + s)
            * Fraction(1, 4 ** (p + s))
            * comb(p + s, r)
            * comb(p + s, q)
            * num
            / denom
        )

    rep = verify_markov_exact(exact_chain_law(V), V, transition=corrupted)
    assert not rep.ok and rep.discrepancies
    print("CRITERION 11 PASS: all three corruptions detected")
