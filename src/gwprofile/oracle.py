"""Exhaustive exact computations used to verify every formula independently.

Everything here is brute force over small edge budgets, with exact
rational weights: full tree enumeration, bicoloured-forest counting,
marked-forest joint laws, exact conditioned-chain path laws, and the
first-hitting-time (cyclic lemma) identity for the associated walk.
The one exception is :func:`size_mass`, which uses Lagrange inversion;
the tests compare it with tree enumeration.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import count, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, IntegrityError, ResourceLimitError
from .genfun import _integer_scale
from .model import TreeModel
from .tree import LabelledPlaneTree, edge_profile

ITEM_CAP = 10**7


@dataclass(frozen=True)
class WeightedEnsemble:
    """A finite family of trees with exact positive weights."""

    items: Tuple[Tuple[LabelledPlaneTree, Fraction], ...]

    def __post_init__(self):
        if any(w <= 0 for _, w in self.items):
            raise IntegrityError("ensemble weights must be positive")

    @cached_property
    def total(self) -> Fraction:
        return sum((w for _, w in self.items), Fraction(0))


@dataclass(frozen=True)
class MarkedTree:
    """A plane tree with two vertex marks sigma and iota.

    ``R`` = vertices with sigma = 1, ``L`` = vertices with iota = 1.
    A vertex with sigma = 0 has no children.
    """

    children: Tuple[Tuple[int, ...], ...]
    sigma: Tuple[int, ...]
    iota: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.children)
        if not (len(self.sigma) == len(self.iota) == n and n >= 1):
            raise IntegrityError("marked tree arrays must have equal length >= 1")
        for v in range(n):
            if self.sigma[v] == 0 and self.children[v]:
                raise IntegrityError(f"vertex {v} has sigma=0 but children")

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    @property
    def n_edges(self) -> int:
        return len(self.children) - 1

    @property
    def R(self) -> Tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.sigma) if s)

    @property
    def L(self) -> Tuple[int, ...]:
        return tuple(v for v, i in enumerate(self.iota) if i)


# -- exhaustive tree enumeration -------------------------------------------


def _subtrees(model: TreeModel, budget: int, join) -> Tuple[Dict[tuple, int], int]:
    """Every positive-weight subtree with ``budget`` edges, grouped by key.

    A vertex's key is ``join`` of its (child increment, child key) pairs,
    built bottom-up from the leaves' ``join(())``: the nested shape for
    :func:`enumerate_trees`, or one int of edge counts for the chain law
    (:func:`_edge_counts`).  Subtrees with equal keys have their weights
    summed.  Keys are label-free: increments are relative to the root.

    Weights are integers over one common denominator, returned with
    them: every vertex factor ξ(k)·η(vec) is n/D for the lcm D of their
    denominators, and a subtree with e edges has e + 1 vertices, so all
    of level e share D^(e+1).  The product loop runs on ints.
    """
    factors = [  # (arity, increments, ξ(k)·η(vec)), arities ascending
        (k, vec, model.offspring.prob(k) * eta)
        for k in model.offspring.arities_up_to(budget)
        for vec, eta in model.displacement.vectors(k)
    ]
    D = math.lcm(*(x.denominator for _, _, x in factors))
    levels: List[Dict[tuple, int]] = []
    for e in range(budget + 1):
        out: Dict[tuple, int] = defaultdict(int)
        for k, vec, x in factors:
            if k > e:
                break
            n = x.numerator * (D // x.denominator)
            for parts in _compositions(e - k, k):
                for combo in product(*(levels[p].items() for p in parts)):
                    w = n
                    for _, cw in combo:
                        w *= cw
                    out[join(tuple(zip(vec, (c for c, _ in combo))))] += w
        levels.append(dict(out))
    return levels[budget], D ** (budget + 1)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_trees(model: TreeModel, edges: int) -> WeightedEnsemble:
    """Every positive-weight tree with root label 0 and ``edges`` edges,
    at most ``ITEM_CAP`` of them.

    Weights are summed as integers over :func:`_subtrees`' common
    denominator; each tree's exact Fraction is built once, at the end.
    """
    if edges < 0:
        raise DomainError("edges must be >= 0")
    # keyed by the shape itself: nested (increment, child shape) pairs
    shapes, denominator = _subtrees(model, edges, lambda children: children)
    if len(shapes) > ITEM_CAP:
        raise ResourceLimitError(
            f"enumeration would produce {len(shapes)} > cap {ITEM_CAP} trees"
        )
    items = tuple(
        (LabelledPlaneTree.from_nested(0, s), Fraction(w, denominator))
        for s, w in shapes.items()
    )
    return WeightedEnsemble(items)


_mass_memo: Dict[tuple, Fraction] = {}


def size_mass(model: TreeModel, edges: int) -> Fraction:
    """Exact mass the model puts on trees with the given edge count.

    By Lagrange inversion: the size generating function T(w) solves
    T = φ(w·T) with φ(s) = Σ_k ξ(k)·η_k·s^k, where η_k is the total
    displacement mass at arity k, so [w^n]T = [s^n]φ(s)^(n+1) / (n+1).
    Every η_k is 1, with no vector enumerated: iid laws are products of
    per-child laws, and :class:`TreeModel` checks that each per-arity
    table the offspring law uses sums to 1.  So φ is ξ's generating
    function.  The power comes from J. C. P. Miller's recurrence in
    O(n · deg φ) operations.
    """
    if edges < 0:
        raise DomainError("edges must be >= 0")
    key = (model.key, edges)
    got = _mass_memo.get(key)
    if got is not None:
        return got
    phi = [model.offspring.prob(k) for k in range(edges + 1)]
    # φ^m = φ_0^m·ψ^m with ψ = φ/φ_0.  With c such that every c^j·ψ_j is
    # an integer (c = 2 for geometric(1/2)), b(t) = ψ(c·t) is an integer
    # polynomial with b_0 = 1, and B = b^m follows Miller's recurrence
    # k·B_k = Σ_{j=1..k} ((m+1)j − k)·b_j·B_{k−j}, an exact division.
    m = edges + 1
    total = Fraction(0)
    if phi[0]:
        c, b = _integer_scale(enumerate(x / phi[0] for x in phi))
        power = [1]
        for k in range(1, edges + 1):
            acc = 0
            for j in range(1, k + 1):
                if b[j]:
                    acc += ((m + 1) * j - k) * b[j] * power[k - j]
            coeff, rem = divmod(acc, k)
            if rem:
                raise IntegrityError("Miller's power recurrence left a remainder")
            power.append(coeff)
        total = phi[0] ** m * Fraction(power[edges], m * c**edges)
    _mass_memo[key] = total
    return total


# -- exact conditioned chain law -------------------------------------------


def chain_path(t: LabelledPlaneTree, V: int) -> Tuple[Tuple[int, int, int], ...]:
    """The (X_m^+, X_m^-, M_m^-) path of one tree, up to absorption.

    States are listed for m = 1, 2, ... and end with the first
    absorbing state (0, 0, V).
    """
    prof = edge_profile(t)
    return _read_path(lambda m: (prof.up.get(m, 0), prof.down.get(m, 0), prof.mass_below(m)), V)


def _read_path(state_at, V: int):
    path = []
    for m in count(1):
        state = state_at(m)
        path.append(state)
        if state[0] == 0:
            if state != (0, 0, V):
                raise IntegrityError(f"absorbed at {state}, expected (0,0,{V})")
            return tuple(path)


def _edge_counts(V: int):
    """A :func:`_subtrees` join counting the edges below a vertex in one int.

    The ``width``-bit digit 3·(u + V) + d + 1 counts the edges with upper
    label u in −V..V, relative to the vertex, and direction d, the sign of
    the child's increment.  A child's key moves one label (three digits)
    with its increment, and keys add.  No digit carries, as a slot counts
    at most V edges, and no label moves below −V, as a child has fewer
    than V edges.  Returns ``(join, width)``.
    """
    width = (V + 1).bit_length()
    step = 3 * width
    edge = {inc: 1 << ((V + max(inc, 0)) * 3 + inc + 1) * width for inc in (-1, 0, 1)}

    def join(children) -> int:
        key = 0
        for inc, sub in children:
            key += edge[inc] + (sub << step if inc > 0 else sub >> step if inc < 0 else sub)
        return key

    return join, width


def exact_chain_law(V: int):
    """Exact path law of (X^+, X^-, M^-) for the uniform V-edge binary tree.

    Brute force, aggregated: every V-edge tree is enumerated, grouped by
    its counts of (upper label, direction) edges (:func:`_edge_counts`),
    which is all its path depends on, so each group gives one path: X^+
    and X^- are digits of each level, and M^- is the digit sum below it.
    A lost edge would fail the absorption check.  At V = 10 that is 5,887
    groups for 58,786 trees.  No kernel or profile-counting formula is
    used.  ``ITEM_CAP`` bounds the number of groups.  Group weights are
    integers over one common denominator, so each path sums ints and
    becomes one Fraction, its weight over the total, at the end.
    """
    from .model import builtin_model

    if V < 0:
        raise DomainError("V must be >= 0")
    join, width = _edge_counts(V)
    groups, _ = _subtrees(builtin_model("incomplete-binary"), V, join)
    if len(groups) > ITEM_CAP:
        raise ResourceLimitError(f"{len(groups)} edge multisets exceed cap {ITEM_CAP}")
    total = sum(groups.values())
    digit = (1 << width) - 1

    def state_at(key, m):
        low = (m + V) * 3 * width  # level m's first digit
        # a digit sum is at most V < 2^width − 1: the residue, as in casting out nines
        below = (key & (1 << low) - 1) % digit
        return (key >> low + 2 * width & digit, key >> low & digit, below)

    law: Dict[tuple, int] = defaultdict(int)
    for key, w in groups.items():
        law[_read_path(partial(state_at, key), V)] += w
    return {path: Fraction(w, total) for path, w in law.items()}


@dataclass
class MarkovReport:
    histories_checked: int = 0
    transitions_checked: int = 0
    discrepancies: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def verify_markov_exact(law, V: int, transition=None) -> MarkovReport:
    """Check the exact Markov property of a path law, and a kernel.

    For every history with positive mass, the conditional next-state
    law must equal the conditional law given the final state alone, and
    that law must be the same at every step where the state occurs
    (time-homogeneity); if ``transition(from_state, to_state)`` is
    given, every conditional probability is also compared to it.
    Histories and states with zero mass are skipped and not counted.
    Returns a report listing any discrepancy (never raises).

    Masses, ints or Fractions, are summed as numerators over the lcm of
    their denominators, and conditional laws are cross-multiplied;
    Fractions are built only for the kernel and for discrepancy text.
    """
    report = MarkovReport()
    absorbing = (0, 0, V)
    den = math.lcm(*(w.denominator for w in law.values()))
    mass = {p: w.numerator * (den // w.denominator) for p, w in law.items() if w}
    max_len = max((len(p) for p in mass), default=0)
    first_seen: Dict[tuple, tuple] = {}  # state -> (step, (masses, total))

    def differ(a, ta, b, tb):  # do masses a over ta and b over tb give different laws?
        return a.keys() != b.keys() or any(w * tb != b[n] * ta for n, w in a.items())

    def show(d, total):
        return {n: Fraction(w, total) for n, w in d.items()}

    for k in range(max_len - 1):
        by_history: Dict[tuple, Dict[tuple, int]] = defaultdict(lambda: defaultdict(int))
        by_state: Dict[tuple, Dict[tuple, int]] = defaultdict(lambda: defaultdict(int))
        for path, w in mass.items():
            if k >= len(path):
                continue
            hist = path[: k + 1]
            nxt = path[k + 1] if k + 1 < len(path) else absorbing
            by_history[hist][nxt] += w
            by_state[hist[-1]][nxt] += w
        state_law = {s: (d, sum(d.values())) for s, d in by_state.items()}
        for s, cond in state_law.items():
            step, seen = first_seen.setdefault(s, (k + 1, cond))
            if differ(*cond, *seen):
                report.discrepancies.append(
                    f"state {s}: step {step} gives {show(*seen)},"
                    f" step {k + 1} gives {show(*cond)}"
                )
        for hist, d in by_history.items():
            cond = (d, sum(d.values()))
            report.histories_checked += 1
            if differ(*cond, *state_law[hist[-1]]):
                report.discrepancies.append(
                    f"step {k + 1}: history {hist} gives {show(*cond)},"
                    f" state {hist[-1]} alone gives {show(*state_law[hist[-1]])}"
                )
        if transition is not None:
            for s, (d, total) in state_law.items():
                for n, w in d.items():
                    report.transitions_checked += 1
                    prob = Fraction(w, total)
                    expected = transition(s, n)
                    if expected != prob:
                        report.discrepancies.append(
                            f"transition {s} -> {n}: law {prob}, kernel {expected}"
                        )
    return report


# -- bicoloured forest counting --------------------------------------------


def enumerate_bicoloured_forests(
    n: int, n_plus: Sequence[int], n_minus: Sequence[int]
) -> int:
    """Count bicoloured plane forests with prescribed per-vertex arities.

    The forest has ``n`` trees rooted at positive vertices; positive
    vertices v_1..v_p have n_plus[j] children (all negative), negative
    vertices u_1..u_q have n_minus[i] children (all positive).  The
    count is verified against q!(p-1)!n in tests.
    """
    p, q = len(n_plus), len(n_minus)
    if n < 1 or p < n:
        raise DomainError("need n >= 1 and p >= n")
    if p != n + sum(n_minus) or q != sum(n_plus):
        raise DomainError(
            "arity lists violate p = n + sum(n_minus), q = sum(n_plus)"
        )

    count = 0
    # Fill the forest in depth-first order: a stack of (sign of the
    # vertex wanted); assignment of the labelled vertices is explicit.
    used_p = [False] * p
    used_q = [False] * q

    def fill(stack) -> None:
        nonlocal count
        if not stack:
            # a valid forest uses every one of the p + q labelled vertices
            if all(used_p) and all(used_q):
                count += 1
            return
        sign, rest = stack[0], stack[1:]
        if sign > 0:
            for j in range(p):
                if used_p[j]:
                    continue
                used_p[j] = True
                fill([-1] * n_plus[j] + rest)
                used_p[j] = False
        else:
            for i in range(q):
                if used_q[i]:
                    continue
                used_q[i] = True
                fill([+1] * n_minus[i] + rest)
                used_q[i] = False

    fill([+1] * n)
    return count


# -- marked trees and forests ----------------------------------------------


def enumerate_marked_forests(nu: Sequence[Fraction], p: int, s: int):
    """Joint law of (sum |L_k|, sum |R_k|) for p marked trees, total edges s.

    Returns a dict (q, r) -> exact probability of the event
    {sum |T_k| = s, sum |L_k| = q, sum |R_k| = r}.  Every vertex draws
    iota, sigma ~ Bernoulli(1/2); a vertex with sigma = 1 draws its
    children count from ``nu``; |T| counts edges.
    """
    if p < 1 or s < 0:
        raise DomainError("need p >= 1 and s >= 0")
    forest = _marked_forest_law(tuple(Fraction(x) for x in nu))
    return {qr: w for qr, w in forest(p, s).items() if w != 0}


@lru_cache(maxsize=4)
def _marked_forest_law(nu: Tuple[Fraction, ...]):
    """``forest(k, budget)``: the law of k marked trees with ``budget``
    edges in all, for one ``nu``.

    The laws of one tree with e edges and of k trees with ``budget``
    edges are each computed once, in one pair of memos that every call
    with this ``nu`` shares, so a grid of (p, s) cells costs what its
    largest cell does.
    """
    memo: Dict[int, Dict[Tuple[int, int], Fraction]] = {}
    half = Fraction(1, 2)

    def tree(e: int) -> Dict[Tuple[int, int], Fraction]:
        got = memo.get(e)
        if got is not None:
            return got
        out: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
        for iota in (0, 1):
            # sigma = 0: leaf
            if e == 0:
                out[(iota, 0)] += half * half
            # sigma = 1 with k children
            for k in range(len(nu)):
                if nu[k] == 0 or k > e:
                    continue
                base = half * half * nu[k]
                for sub, w in forest(k, e - k).items():
                    out[(iota + sub[0], 1 + sub[1])] += base * w
        memo[e] = dict(out)
        return memo[e]

    forest_memo: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}

    def forest(k: int, budget: int) -> Dict[Tuple[int, int], Fraction]:
        if k == 0:
            return {(0, 0): Fraction(1)} if budget == 0 else {}
        got = forest_memo.get((k, budget))
        if got is not None:
            return got
        out: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
        for e in range(budget + 1):
            for a, wa in tree(e).items():
                for b, wb in forest(k - 1, budget - e).items():
                    out[(a[0] + b[0], a[1] + b[1])] += wa * wb
        forest_memo[(k, budget)] = dict(out)
        return forest_memo[(k, budget)]

    return forest


def to_marked(t: LabelledPlaneTree) -> MarkedTree:
    """The marked tree of label-1 vertices of a positive excursion.

    Vertices are the label-1 vertices of ``t`` (incomplete binary
    model), joined by nearest-label-1-ancestor edges; sigma marks
    vertices with a right (+1) child, iota those with a left (-1)
    child.  The edge-count identities |T| = y-, |L| = n, |R| = y+ are
    asserted.
    """
    if t.labels[0] != 1 or any(l < 0 for l in t.labels):
        raise DomainError("to_marked expects a positive excursion rooted at 1")
    ones = [v for v in range(t.n_vertices) if t.labels[v] == 1]
    index = {v: i for i, v in enumerate(ones)}
    children: List[List[int]] = [[] for _ in ones]
    sigma = [0] * len(ones)
    iota = [0] * len(ones)
    # nearest label-1 ancestor via preorder stack
    anc: List[Optional[int]] = [None] * t.n_vertices
    for v in range(1, t.n_vertices):
        par = t.parents[v]
        anc[v] = par if t.labels[par] == 1 else anc[par]
    for v in ones:
        if v != 0:
            children[index[anc[v]]].append(index[v])
        for c in t.children[v]:
            if t.labels[c] == 2:
                sigma[index[v]] = 1
            elif t.labels[c] == 0:
                iota[index[v]] = 1
    marked = MarkedTree(
        tuple(tuple(c) for c in children), tuple(sigma), tuple(iota)
    )
    prof_y_minus = sum(
        1
        for v in range(1, t.n_vertices)
        if t.labels[v] == 1 and t.labels[t.parents[v]] == 2
    )
    n_tau = sum(1 for l in t.labels if l == 0)
    y_plus = sum(
        1
        for v in range(1, t.n_vertices)
        if t.labels[v] == 2 and t.labels[t.parents[v]] == 1
    )
    if (marked.n_edges, len(marked.L), len(marked.R)) != (
        prof_y_minus,
        n_tau,
        y_plus,
    ):
        raise IntegrityError("marked-tree cardinality identities violated")
    return marked


# -- first-hitting-time (cyclic lemma) identity -----------------------------


def _walk_joint(nu: Sequence[Fraction], steps: int):
    """Joint law (sum k_j, sum sigma_j) of iid steps of the marked walk.

    One step: with prob 1/2 sigma = 0 and k = 0; with prob (1/2) nu(k)
    sigma = 1 and k children.
    """
    half = Fraction(1, 2)
    step = {(0, 0): half}
    for k in range(len(nu)):
        if nu[k]:
            step[(k, 1)] = half * nu[k]
    acc = {(0, 0): Fraction(1)}
    for _ in range(steps):
        nxt: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
        for (c0, s0), w0 in acc.items():
            for (k, sg), w in step.items():
                nxt[(c0 + k, s0 + sg)] += w0 * w
        acc = dict(nxt)
    return acc


def kemperman_check(nu: Sequence[Fraction], p: int, s: int):
    """Both sides of the first-hit identity for the marked walk.

    Returns a dict (q, r) -> (lhs, rhs) with
    lhs = P(h_{-p} = p+s, sum sigma = r, sum iota = q) computed by
    forest exhaustion, rhs = (p/(p+s)) P(S_{p+s} = -p, ...) computed
    from the unconstrained walk.  The two must agree exactly.
    """
    nu = [Fraction(x) for x in nu]
    lhs = enumerate_marked_forests(nu, p, s)
    walk = _walk_joint(nu, p + s)
    out = {}
    iota_denom = Fraction(1, 2 ** (p + s))
    for (q, r) in set(lhs) | {
        (q, r)
        for (k, r), w in walk.items()
        if k == s
        for q in range(p + s + 1)
    }:
        rhs = (
            Fraction(p, p + s)
            * walk.get((s, r), Fraction(0))
            * math.comb(p + s, q)
            * iota_denom
        )
        l = lhs.get((q, r), Fraction(0))
        if l or rhs:
            out[(q, r)] = (l, rhs)
    return out
