"""Explicit transition kernels of the binary-tree edge-profile chain.

The chain is ``(X_m^+, X_m^-)`` for the incomplete binary model: the
counts of upward and downward vertical edges between labels m-1 and m.
Its kernel has the closed form

    P[(p,q) -> (r,s)] = (p 4^{-p-s}/(p+s)) C(p+s,r) C(p+s,q) f_r(s)/f_p(q)

where ``f_p(q)`` is the probability that p independent draws from the
first-hit offspring law sum to q.  Conditioning the tree on V edges
replaces the f-ratio by a ratio of joint tables ``f~_p(q, l)`` (p
excursions, q zero-leaves, l edges) and pins the third coordinate
``M^-`` (edge mass below the level) to w = v + p + q.

``free_row`` and ``cond_row`` give one row's nonzero cells in ``kernel_row``
order; only ``cond_row`` forms the pinned targets and checks the start.

All kernel operations take the f / f~ tables as explicit arguments so
the provenance of the tables (series expansion, fixed point, dynamic
program) is part of every computation.  Tables are nested sequences
``f[p][q]`` and ``ftilde[p][q][l]`` of exact rationals or floats, each
with its own row 0 (f_0(q) = [q = 0], f~_0(q, l) = [q = l = 0]), as
:mod:`genfun` builds them; a cell past a row's end reads 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .errors import DomainError


def check_state(p: int, q: int) -> Tuple[int, int]:
    """Free-chain state (p, q) with q = 0 forced when p = 0."""
    if p < 0 or q < 0 or (p == 0 and q != 0):
        raise DomainError(f"({p},{q}) is not a valid chain state")
    return p, q


def check_cond_state(p: int, q: int, v: int, V: int) -> Tuple[int, int, int]:
    """Conditioned-chain state (p, q, v); absorbing state is (0, 0, V)."""
    if V < 0:
        raise DomainError("V must be >= 0")
    if p == 0:
        if q != 0 or v != V:
            raise DomainError(f"({p},{q},{v}) invalid: absorbing state is (0,0,{V})")
    elif q < 0 or not (0 <= v <= V):
        raise DomainError(f"({p},{q},{v}) outside the conditioned state space")
    return p, q, v


def _lookup(table, *idx):
    """The cell ``table[i][j]...``, or 0 for an index below 0 or past a row's end."""
    cur = table
    for i in idx:
        if not 0 <= i < len(cur):
            return Fraction(0)
        cur = cur[i]
    return Fraction(cur) if not isinstance(cur, float) else cur


def _weight(p: int, q: int, r: int, s: int) -> Fraction:
    """The table-free factor p/(p+s) 4^{-(p+s)} C(p+s,r) C(p+s,q) of the kernel."""
    n = p + s
    return Fraction(p * comb(n, r) * comb(n, q), n * 4**n)


def kernel_row(p: int, smax: int) -> List[Tuple[int, int]]:
    """Targets (r, s) of a free-chain row from p, for s <= smax.

    Ordered by s, then r; r = 0 only at s = 0, since (0, 0) is absorbing,
    which is also the whole row from p = 0.
    """
    if p == 0:
        return [(0, 0)]
    return [(0, 0)] + [(r, s) for s in range(smax + 1) for r in range(1, p + s + 1)]


def transition_prob(f, from_state, to_state) -> Fraction:
    """One-step probability of the free chain (exact)."""
    p, q = check_state(*from_state)
    r, s = check_state(*to_state)
    if p == 0:
        return Fraction(1) if (r, s) == (0, 0) else Fraction(0)
    denom = _lookup(f, p, q)
    if denom == 0:
        raise DomainError(f"state ({p},{q}) is unreachable: f_{p}({q}) = 0")
    num = _lookup(f, r, s)
    if num == 0:
        return Fraction(0)
    return _weight(p, q, r, s) * num / denom


def free_row(f, state, smax: int) -> List[Tuple[Tuple[int, int], Fraction]]:
    """The nonzero cells (target, probability) of the free-chain row from
    ``state``, for s <= smax, in :func:`kernel_row` order."""
    cells = ((to, transition_prob(f, state, to)) for to in kernel_row(state[0], smax))
    return [(to, prob) for to, prob in cells if prob != 0]


def _ftilde_at(ftilde, p: int, q: int, l: int) -> Fraction:
    """f̃_p(q, l), or 0 outside the table (l < 0 included)."""
    return _lookup(ftilde, p, q, l)


def _start_weight(ftilde, V: int, p: int, q: int, v: int) -> Fraction:
    """f~_p(q, V-v-p), the weight of state (p, q, v); 0 is a DomainError."""
    rest = V - v - p
    weight = _ftilde_at(ftilde, p, q, rest)
    if weight == 0:
        raise DomainError(
            f"state ({p},{q},{v}) is unreachable with {V} edges: f~_{p}({q},{rest}) = 0"
        )
    return weight


def cond_transition_prob(ftilde, V: int, from_state, to_state) -> Fraction:
    """One-step probability of the chain conditioned on V total edges.

    The pin w = v + p + q (the mass below the next level is the mass
    below this one plus this level's p + q vertical edges) holds only
    for models without 0-increments.  A model with horizontal edges,
    such as geom-pm01, adds their count h = w − v − p − q at each level.
    Checked exactly at V ≤ 7, the ratio P_V(s → t)·f̃_p(q, V−v−p) /
    f̃_r(s, V−w−r) is a function of (p, q, r, s) alone for the other
    builtins; for geom-pm01 it is not, in 456 of 1,002 transitions, and
    becomes one once h is added.  This kernel serves the incomplete-binary
    model, which has no 0-increments.
    """
    p, q, v = check_cond_state(*from_state, V)
    r, s, w = check_cond_state(*to_state, V)
    if p == 0:
        return Fraction(1) if (r, s, w) == (0, 0, V) else Fraction(0)
    if w != v + p + q:
        return Fraction(0)
    denom = _start_weight(ftilde, V, p, q, v)
    num = _ftilde_at(ftilde, r, s, V - w - r)
    if num == 0:
        return Fraction(0)
    return _weight(p, q, r, s) * num / denom


def cond_row(ftilde, V: int, state, smax: int) -> List[Tuple[Tuple[int, int, int], Fraction]]:
    """The nonzero cells (target, probability) of the conditioned row from
    ``state``, for s <= min(smax, V), in :func:`kernel_row` order; each
    target carries the pin w = v + p + q, or is the absorbing (0, 0, V).
    An unreachable start is refused first: from some, v + p + q > V, and
    a target would fail as outside the state space instead."""
    p, q, v = check_cond_state(*state, V)
    _start_weight(ftilde, V, p, q, v)
    targets = ((r, s, v + p + q) if r else (0, 0, V) for r, s in kernel_row(p, min(smax, V)))
    cells = ((to, cond_transition_prob(ftilde, V, state, to)) for to in targets)
    return [(to, prob) for to, prob in cells if prob != 0]


def harmonic_H(f, ftilde, V: int, state) -> Fraction:
    """H(p,q,v) = f~_p(q, V-v-p) / f_p(q); the h-transform linking the kernels."""
    p, q, v = check_cond_state(*state, V)
    if p == 0:
        return Fraction(1)
    denom = _lookup(f, p, q)
    if denom == 0:
        raise DomainError(f"state ({p},{q}) is unreachable: f_{p}({q}) = 0")
    return _ftilde_at(ftilde, p, q, V - v - p) / denom


def _validate_half_profile(states: Sequence[Tuple[int, int]], side: str):
    """First components must be positive exactly on a prefix {1..m}."""
    m = len(states)
    for k, (a, b) in enumerate(states):
        if a < 0 or b < 0:
            raise DomainError(f"{side} profile has negative entries at level {k + 1}")
    support = [k for k, (a, _) in enumerate(states) if a > 0]
    if support and (support[0] != 0 or support != list(range(support[-1] + 1))):
        raise DomainError(f"{side} profile support is not a prefix interval")
    return support[-1] + 1 if support else 0


def count_profile(plus, check) -> int:
    """Number of binary trees with the given vertical edge profile.

    ``plus`` lists (p_k, q_k) = (up, down) edge counts between labels
    k-1 and k for k = 1..; ``check`` lists (pcheck_k, qcheck_k) = (up,
    down) counts between labels -k and -k+1.  Reflecting the labels maps
    the negative half onto a positive one with up and down swapped, so
    it is read as the pairs (qcheck_k, pcheck_k), and both halves go
    through the same checks and the same product.
    ``VerticalEdgeProfile.halves()`` gives a tree's pair.

    A profile violating the state-space constraint (a downward count
    without the matching upward count) has count 0.
    """
    halves = ([tuple(x) for x in plus], [(qc, pc) for pc, qc in check])
    heights = [
        _validate_half_profile(half, side)
        for half, side in zip(halves, ("positive", "negative"))
    ]
    # state-space constraint: q_k = 0 whenever p_k = 0.
    for half in halves:
        for p_k, q_k in half:
            if p_k == 0 and q_k != 0:
                return 0

    def at(seq, k):  # 1-based, zero beyond range
        return seq[k - 1] if 1 <= k <= len(seq) else (0, 0)

    # Each factor is a kernel weight times 4^n, n = p + s: the root's of
    # (1, qc1) -> (p1, pc1 + q1), level j's of (p_j, q_j) -> (p_n, q_n).
    (p1, q1), (qc1, pc1) = (at(half, 1) for half in halves)
    card = 4 ** (1 + pc1 + q1) * _weight(1, qc1, p1, pc1 + q1)
    for half, m in zip(halves, heights):
        for j in range(1, m + 1):
            p_j, q_j = at(half, j)
            p_n, q_n = at(half, j + 1)
            card *= 4 ** (p_j + q_n) * _weight(p_j, q_j, p_n, q_n)
    if card.denominator != 1:
        raise DomainError("profile count formula produced a non-integer")
    return int(card)
