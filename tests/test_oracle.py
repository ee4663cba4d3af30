import bisect
import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from gwprofile import builtin_model, decode, oracle, tree_weight
from gwprofile.errors import DomainError, IntegrityError, ResourceLimitError
from gwprofile.genfun import f_table, joint_table, nu_table
from gwprofile.kernel import cond_transition_prob
from gwprofile.oracle import (
    chain_path,
    enumerate_bicoloured_forests,
    enumerate_marked_forests,
    enumerate_trees,
    exact_chain_law,
    kemperman_check,
    size_mass,
    to_marked,
    verify_markov_exact,
)
from gwprofile.sampler import Sampler, SamplerConfig
from gwprofile.tree import LabelledPlaneTree

BINARY = builtin_model("incomplete-binary")
BUILTINS = ("geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary")


def reference_subtrees(model, budget, join):
    """Key -> exact weight of every subtree with ``budget`` edges, multiplied
    out factor by factor in Fractions, with keys relative to the root: the
    definition ``oracle._subtrees`` must match, keys in the same order.
    ``join`` takes the (child increment, child key) pairs."""
    levels = []
    for e in range(budget + 1):
        out = defaultdict(Fraction)
        for k in model.offspring.arities_up_to(e):
            xi = model.offspring.prob(k)
            for vec, eta in model.displacement.vectors(k):
                for parts in _compositions(e - k, k):
                    for combo in product(*(levels[p].items() for p in parts)):
                        w = xi * eta
                        for _, cw in combo:
                            w *= cw
                        out[join(tuple(zip(vec, (c for c, _ in combo))))] += w
        levels.append(dict(out))
    return levels[budget]


def _edge_multiset(children) -> tuple:
    """Sorted (upper label, direction) of every edge below a vertex.

    Labels are relative to the vertex, so absolute for a root at 0;
    direction is the sign of the child's increment.
    """
    edges = []
    for inc, sub in children:
        edges.append((max(inc, 0), inc))
        edges.extend((upper + inc, d) for upper, d in sub)
    return tuple(sorted(edges))


def shape(a, vec, keys):
    """The ``oracle._subtrees`` join of :func:`enumerate_trees`: the nested
    shape, label-free."""
    return tuple(zip(vec, keys))


def edge_key(multiset, width):
    """The int key ``oracle._edge_key`` documents for a multiset of
    (absolute upper label, direction) edges: ``width``-bit digit 0 counts
    the edges with upper label <= 0, digit 3u + d - 1 the others."""
    return sum(1 << max(3 * u + d - 1, 0) * width for u, d in multiset)


def reference_chain_law(V):
    """``exact_chain_law`` by grouping Fraction-weighted trees by sorted
    multisets of (absolute upper label, direction) edges, and reading each
    path with counters and a bisection: the definition the absolute-label
    int keys must match, items and order."""
    groups = reference_subtrees(BINARY, V, _edge_multiset)
    total = sum(groups.values())
    law = defaultdict(Fraction)
    for ms, w in groups.items():
        x_plus = Counter(u for u, d in ms if d > 0)
        x_minus = Counter(u for u, d in ms if d < 0)
        uppers = [u for u, _ in ms]  # sorted, as ms is
        path = [(x_plus[1], x_minus[1], bisect.bisect_right(uppers, 0))]
        while path[-1][0]:
            m = len(path) + 1
            path.append((x_plus[m], x_minus[m], bisect.bisect_right(uppers, m - 1)))
        assert path[-1] == (0, 0, V)
        law[tuple(path)] += w
    return {path: w / total for path, w in law.items()}


def reference_verify_markov_exact(law, V, transition=None):
    """``verify_markov_exact`` summing and normalising Fractions: the
    definition the integer route must match, counters and text.  It
    needs every history to have positive mass."""
    report = oracle.MarkovReport()
    absorbing = (0, 0, V)
    max_len = max((len(p) for p in law), default=0)
    first_seen = {}  # state -> (step, law)

    def state_at(path, k):  # absorbing once ended
        return path[k] if k < len(path) else absorbing

    for k in range(max_len - 1):
        by_history = defaultdict(lambda: defaultdict(Fraction))
        by_state = defaultdict(lambda: defaultdict(Fraction))
        for path, w in law.items():
            if k >= len(path):
                continue
            hist = path[: k + 1]
            nxt = state_at(path, k + 1)
            by_history[hist][nxt] += w
            by_state[hist[-1]][nxt] += w
        norm_state = {
            s: {n: w / sum(d.values()) for n, w in d.items()}
            for s, d in by_state.items()
        }
        for s, cond in norm_state.items():
            step, seen = first_seen.setdefault(s, (k + 1, cond))
            if cond != seen:
                report.discrepancies.append(
                    f"state {s}: step {step} gives {seen}, step {k + 1} gives {cond}"
                )
        for hist, d in by_history.items():
            total = sum(d.values())
            cond = {n: w / total for n, w in d.items()}
            report.histories_checked += 1
            if cond != norm_state[hist[-1]]:
                report.discrepancies.append(
                    f"step {k + 1}: history {hist} gives {cond},"
                    f" state {hist[-1]} alone gives {norm_state[hist[-1]]}"
                )
        if transition is not None:
            for s, d in norm_state.items():
                for n, prob in d.items():
                    report.transitions_checked += 1
                    expected = transition(s, n)
                    if expected != prob:
                        report.discrepancies.append(
                            f"transition {s} -> {n}: law {prob},"
                            f" kernel {expected}"
                        )
    return report


def corrupted_kernel(V):
    """The conditioned kernel with the excursion edge budget shifted by one."""
    ftilde = joint_table(BINARY, V + 1, V + 1, V)

    def kernel(s, t):
        p, q, v = s
        r, ss, w = t
        if p == 0:
            return Fraction(1) if t == (0, 0, V) else Fraction(0)
        if w != v + p + q:
            return Fraction(0)
        from gwprofile.kernel import _ftilde_at

        denom = _ftilde_at(ftilde, p, q, V - v - p)
        num = _ftilde_at(ftilde, r, ss, V - w - r - 1)
        return (
            Fraction(p, p + ss)
            * Fraction(1, 4 ** (p + ss))
            * comb(p + ss, r)
            * comb(p + ss, q)
            * num
            / denom
        )

    return kernel


# Markov within each step (one history per state), but state A moves to A
# or Z at step 1 and only to Z at step 2.
A, B, C, D, Z = (1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 3)
INHOMOGENEOUS = {(A, Z): Fraction(1, 2), (A, A, Z): Fraction(1, 2)}
# Time-homogeneous, but from C the chain moves to D with probability 1/3
# after A and 2/3 after B: the supports agree, only the masses differ.
HISTORY_DEPENDENT = {
    (A, C, D, Z): Fraction(1, 6),
    (A, C, Z): Fraction(1, 3),
    (B, C, D, Z): Fraction(1, 3),
    (B, C, Z): Fraction(1, 6),
}


class TestEnumeration:
    def test_one_edge_binary(self):
        ens = enumerate_trees(BINARY, 1)
        assert len(ens.items) == 2
        assert all(w == Fraction(1, 16) for _, w in ens.items)

    def test_weights_match_tree_weight(self):
        for model_id in ("geom-pm1", "geom-pm01"):
            model = builtin_model(model_id)
            for e in range(0, 4):
                for t, w in enumerate_trees(model, e).items:
                    assert w == tree_weight(model, t)

    @pytest.mark.parametrize("model_id", BUILTINS)
    def test_subtrees_match_reference(self, model_id):
        model = builtin_model(model_id)
        for e in range(7):
            # the absolute-label key groups as the sorted multiset does once the
            # edges at or below label 0 are lumped, in its order; geom-pm01's
            # 0-increments fill the direction-0 digits
            join, width = oracle._edge_key(e)
            assert e < 1 << width  # a digit holds every edge
            want = defaultdict(Fraction)
            for ms, w in reference_subtrees(model, e, _edge_multiset).items():
                want[edge_key(ms, width)] += w
            weights, denominator = oracle._subtrees(model, e, e, join)
            assert list(weights) == list(want), e
            got = [Fraction(w, denominator) for w in weights.values()]
            assert got == list(want.values()), e
            want = reference_subtrees(model, e, lambda children: children)
            weights, denominator = oracle._subtrees(model, e, 0, shape)
            assert list(weights) == list(want), e
            assert all(Fraction(w, denominator) == want[k] for k, w in weights.items())
            # ``want`` is keyed by shape now
            items = [(LabelledPlaneTree.from_nested(0, k), w) for k, w in want.items()]
            assert list(enumerate_trees(model, e).items) == items, e

    @pytest.mark.parametrize("model_id", BUILTINS)
    def test_label_clamp_keeps_shapes(self, model_id):
        # label-free keys group alike whether labels clamp to 0 or to -e..e
        model = builtin_model(model_id)
        for e in range(6):
            (want, den0), (got, den) = (oracle._subtrees(model, e, span, shape) for span in (0, e))
            assert (list(got.items()), den) == (list(want.items()), den0), e

    def test_size_mass_partial_sums(self):
        for model_id in ("geom-pm1", "geom-pm01", "incomplete-binary"):
            model = builtin_model(model_id)
            total = sum(size_mass(model, e) for e in range(7))
            assert 0 < total < 1

    @pytest.mark.parametrize(
        "model_id, max_edges",
        [
            ("geom-pm1", 7),
            # 7 edges would be 938,223 trees: 33 s and 1.1 GB
            ("geom-pm01", 6),
            ("incomplete-binary", 7),
            ("complete-binary", 7),
        ],
    )
    def test_size_mass_matches_enumeration(self, model_id, max_edges):
        model = builtin_model(model_id)
        for e in range(max_edges + 1):
            assert size_mass(model, e) == enumerate_trees(model, e).total, e

    def test_size_mass_catalan(self):
        # every builtin with geometric(1/2) offspring puts Catalan(n)/2^(2n+1)
        # on n edges
        n = 200
        want = Fraction(math.comb(2 * n, n) // (n + 1), 2 ** (2 * n + 1))
        assert size_mass(builtin_model("geom-pm01"), n) == want

    def test_binary_counts_catalan(self):
        # incomplete-binary trees with V edges: Catalan(V+1) many
        for v in range(0, 5):
            got = len(enumerate_trees(BINARY, v).items)
            assert got == math.comb(2 * (v + 1), v + 1) // (v + 2)

    def test_item_cap_guards_enumeration(self, monkeypatch):
        # 14 incomplete-binary trees with 3 edges, in 8 absolute-label edge multisets
        monkeypatch.setattr(oracle, "ITEM_CAP", 5)
        with pytest.raises(ResourceLimitError, match="14 > cap 5 trees"):
            enumerate_trees(BINARY, 3)
        with pytest.raises(ResourceLimitError, match="edge multisets exceed cap 5"):
            exact_chain_law(3)


class TestChainLaw:
    def test_absorbing_path_v0(self):
        law = exact_chain_law(0)
        assert law == {(((0, 0, 0),)): Fraction(1)}

    def test_v2_paths(self):
        law = exact_chain_law(2)
        # 5 trees; two of them share the all-negative path
        assert sum(law.values()) == 1
        assert law[((0, 0, 2),)] == Fraction(2, 5)
        assert len(law) == 4

    def test_negative_edges_rejected(self):
        with pytest.raises(DomainError, match="V must be >= 0"):
            exact_chain_law(-1)

    @pytest.mark.parametrize("V", range(12))
    def test_matches_reference(self, V):
        assert list(exact_chain_law(V).items()) == list(reference_chain_law(V).items())

    @pytest.mark.parametrize("V", range(9))
    def test_matches_tree_by_tree_law(self, V):
        ens = enumerate_trees(BINARY, V)
        want = defaultdict(Fraction)
        for t, w in ens.items:
            want[chain_path(t, V)] += w / ens.total
        assert exact_chain_law(V) == dict(want)

    def test_chain_path_reads_profile(self):
        t = decode("0(+(+()))")
        path = chain_path(t, 2)
        assert path[0] == (1, 0, 0)

    def test_markov_exact_with_kernel(self):
        V = 5
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        law = exact_chain_law(V)
        rep = verify_markov_exact(
            law, V, transition=lambda s, t: cond_transition_prob(ftilde, V, s, t)
        )
        assert rep.ok and not rep.discrepancies
        assert rep.histories_checked > 0 and rep.transitions_checked > 0

    def test_markov_exact_at_v12(self):
        V = 12
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        law = exact_chain_law(V)
        rep = verify_markov_exact(
            law, V, transition=lambda s, t: cond_transition_prob(ftilde, V, s, t)
        )
        assert rep.ok, rep.discrepancies[:3]
        assert (rep.histories_checked, rep.transitions_checked) == (24058, 2246)

    def test_markov_exact_at_larger_sizes(self):
        # sizes criterion 5 (V <= 10) does not reach
        for V in range(11, 15):
            ftilde = joint_table(BINARY, V + 1, V + 1, V)
            rep = verify_markov_exact(
                exact_chain_law(V), V,
                transition=lambda s, t: cond_transition_prob(ftilde, V, s, t),
            )
            assert rep.ok, (V, rep.discrepancies[:3])
            assert rep.histories_checked > 0 and rep.transitions_checked > 0, V

    def test_markov_evaluates_each_transition_once(self):
        # V = 10 compares 960 conditional probabilities, of only 361
        # distinct (state, next) pairs; the kernel is called once per pair
        V = 10
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        calls = []

        def kernel(s, t):
            calls.append((s, t))
            return cond_transition_prob(ftilde, V, s, t)

        rep = verify_markov_exact(exact_chain_law(V), V, transition=kernel)
        assert rep.ok, rep.discrepancies[:3]
        assert (rep.histories_checked, rep.transitions_checked) == (5044, 960)
        assert len(calls) == len(set(calls)) == 361

    def test_markov_reports_a_recurring_wrong_transition_at_every_step(self):
        # (1, 1, 2) -> (1, 1, 4) is compared at three steps; a kernel wrong
        # there alone is reported three times, as before the kernel memo
        V = 6
        ftilde = joint_table(BINARY, V + 1, V + 1, V)
        wrong = ((1, 1, 2), (1, 1, 4))

        def kernel(s, t):
            prob = cond_transition_prob(ftilde, V, s, t)
            return prob / 2 if (s, t) == wrong else prob

        rep = verify_markov_exact(exact_chain_law(V), V, transition=kernel)
        assert (rep.ok, rep.histories_checked, rep.transitions_checked) == (False, 219, 115)
        assert rep.discrepancies == [
            "transition (1, 1, 2) -> (1, 1, 4): law 2/3, kernel 1/3"
        ] * 3

    def test_markov_detects_corruption(self):
        V = 5
        rep = verify_markov_exact(exact_chain_law(V), V, transition=corrupted_kernel(V))
        assert not rep.ok

    def test_markov_detects_time_inhomogeneity(self):
        rep = verify_markov_exact(INHOMOGENEOUS, 3)
        assert rep.histories_checked == 3
        assert rep.discrepancies == [
            f"state {A}: step 1 gives {{{Z}: Fraction(1, 2), {A}: Fraction(1, 2)}},"
            f" step 2 gives {{{Z}: Fraction(1, 1)}}"
        ]

    def test_markov_detects_history_dependence(self):
        rep = verify_markov_exact(HISTORY_DEPENDENT, 3)
        assert rep.histories_checked == 8
        assert rep.discrepancies == [
            f"step 2: history {(A, C)} gives {{{D}: Fraction(1, 3), {Z}: Fraction(2, 3)}},"
            f" state {C} alone gives {{{D}: Fraction(1, 2), {Z}: Fraction(1, 2)}}",
            f"step 2: history {(B, C)} gives {{{D}: Fraction(2, 3), {Z}: Fraction(1, 3)}},"
            f" state {C} alone gives {{{D}: Fraction(1, 2), {Z}: Fraction(1, 2)}}",
        ]

    @pytest.mark.parametrize(
        "case", ["corrupted-kernel", "inhomogeneous", "history-dependent"]
    )
    def test_markov_matches_reference(self, case):
        law, V, transition = {
            "corrupted-kernel": lambda: (exact_chain_law(5), 5, corrupted_kernel(5)),
            "inhomogeneous": lambda: (INHOMOGENEOUS, 3, None),
            "history-dependent": lambda: (HISTORY_DEPENDENT, 3, None),
        }[case]()
        got = verify_markov_exact(law, V, transition)
        want = reference_verify_markov_exact(law, V, transition)
        assert got.discrepancies  # each input has something to report
        assert (got.histories_checked, got.transitions_checked, got.discrepancies) == (
            want.histories_checked, want.transitions_checked, want.discrepancies)

    def test_markov_skips_zero_mass(self):
        # B's only path has mass 0: its history and state are not checked
        law = {(A, Z): Fraction(1), (B, Z): Fraction(0)}
        rep = verify_markov_exact(law, 3, transition=lambda s, t: Fraction(1))
        assert (rep.ok, rep.histories_checked, rep.transitions_checked) == (True, 1, 1)


class TestBicolouredForests:
    def test_examples(self):
        assert enumerate_bicoloured_forests(1, (0,), ()) == 1
        assert enumerate_bicoloured_forests(1, (1, 0), (1,)) == 1
        assert enumerate_bicoloured_forests(2, (1, 0, 0), (1,)) == 4

    def test_formula_sweep(self):
        for p in range(1, 5):
            for q in range(0, 4 - (p > 3)):
                for n in range(1, p + 1):
                    for n_minus in _compositions(p - n, q):
                        for n_plus in _compositions(q, p):
                            got = enumerate_bicoloured_forests(n, n_plus, n_minus)
                            want = math.factorial(q) * math.factorial(p - 1) * n
                            assert got == want, (n, n_plus, n_minus)

    def test_inconsistent_rejected(self):
        with pytest.raises(DomainError):
            enumerate_bicoloured_forests(2, (0,), ())


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class TestMarkedForests:
    def test_single_vertex_cells(self):
        nu = nu_table(BINARY, 6)
        law = enumerate_marked_forests(nu, 1, 0)
        assert law[(0, 0)] == Fraction(1, 4)
        assert law[(1, 0)] == Fraction(1, 4)
        assert law[(0, 1)] == nu[0] / 4
        assert law[(1, 1)] == nu[0] / 4

    def test_matches_closed_form(self):
        nu = nu_table(BINARY, 10)
        f = f_table(nu, 8, 8)
        for p in (1, 2):
            for s in (0, 1, 2, 3):
                law = enumerate_marked_forests(nu, p, s)
                for q in range(p + s + 1):
                    for r in range(p + s + 1):
                        fr = (
                            f[r][s]
                            if r > 0
                            else (Fraction(1) if s == 0 else Fraction(0))
                        )
                        want = (
                            Fraction(p, p + s)
                            * Fraction(1, 4 ** (p + s))
                            * comb(p + s, q)
                            * comb(p + s, r)
                            * fr
                        )
                        assert law.get((q, r), Fraction(0)) == want

    def test_forest_is_one_tree_convolved_with_the_rest(self):
        nu = nu_table(BINARY, 8)
        for p in (2, 3):
            for s in range(5):
                want = defaultdict(Fraction)
                for e in range(s + 1):
                    rest = enumerate_marked_forests(nu, p - 1, s - e)
                    for (q1, r1), w1 in enumerate_marked_forests(nu, 1, e).items():
                        for (q2, r2), w2 in rest.items():
                            want[(q1 + q2, r1 + r2)] += w1 * w2
                got = enumerate_marked_forests(nu, p, s)
                assert got == {k: w for k, w in want.items() if w}, (p, s)

    def test_a_shared_memo_gives_each_cell_what_a_fresh_one_does(self):
        # Calls with one nu share their memos: no cell's law may depend on
        # the cells computed before it, or on what a caller did to a result.
        nu = nu_table(BINARY, 8)
        cells = [(p, s) for p in (1, 2, 3) for s in range(5)]
        fresh = {}
        for cell in cells:
            oracle._marked_forest_law.cache_clear()
            fresh[cell] = enumerate_marked_forests(nu, *cell)
        oracle._marked_forest_law.cache_clear()
        for cell in reversed(cells):  # the largest cell fills the memos first
            got = enumerate_marked_forests(nu, *cell)
            assert got == fresh[cell], cell
            got.clear()
        for cell in cells:
            assert enumerate_marked_forests(nu, *cell) == fresh[cell], cell


class TestToMarked:
    def test_one_left_child(self):
        mt = to_marked(decode("1(-())"))
        assert mt.n_vertices == 1
        assert mt.iota == (True,) and mt.sigma == (False,)

    def test_identities_on_samples(self):
        s = Sampler(BINARY, SamplerConfig(seed=13, vertex_cap=10**4))
        done = 0
        while done < 100:
            from gwprofile.errors import ResourceLimitError

            try:
                exc = s.sample_excursion(1)
            except ResourceLimitError:
                continue
            to_marked(exc)  # asserts the edge/leaf identities internally
            done += 1


class TestKemperman:
    def test_exact_equalities(self):
        nu = nu_table(BINARY, 8)
        cells = kemperman_check(nu, 2, 3)
        assert cells
        for (q, r), (lhs, rhs) in cells.items():
            assert lhs == rhs, (q, r)
