"""Statistical machinery for Monte Carlo verification of distributional claims.

Provides Pearson chi-square goodness-of-fit (with standard small-cell
pooling) and homogeneity tests, transition censuses of the vertical
edge-profile chain pooled across levels, and a Bonferroni helper for
multi-row sweeps.  All p-values come from the regularized upper
incomplete gamma function.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import mpmath

from .errors import DomainError
from .tree import edge_profile

POOL_THRESHOLD = 5.0


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    p_value: Optional[float]
    cells: int
    skipped: bool


def _gamma_p_value(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with ``dof`` degrees."""
    if statistic <= 0.0:
        return 1.0
    return float(
        mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2, mpmath.inf,
                        regularized=True)
    )


def _pool(pairs: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Pool (observed, expected) cells with small expected counts.

    Cells are sorted by expected count; every cell below 5 is merged into
    one bucket.  A bucket with expected count in [1, 5) is kept as its own
    cell (Cochran's allowance); below 1 it is folded into the smallest
    retained cell."""
    pairs = sorted(pairs, key=lambda oe: oe[1])
    pooled_o = pooled_e = 0.0
    kept: List[Tuple[float, float]] = []
    for o, e in pairs:
        if e < POOL_THRESHOLD:
            pooled_o += o
            pooled_e += e
        else:
            kept.append((o, e))
    if pooled_e > 0.0:
        if pooled_e >= 1.0 or not kept:
            kept.insert(0, (pooled_o, pooled_e))
        else:
            o0, e0 = kept[0]
            kept[0] = (o0 + pooled_o, e0 + pooled_e)
    return kept


def chi_square(
    observed: Mapping[Hashable, int], expected: Mapping[Hashable, float]
) -> ChiSquareResult:
    """Pearson goodness-of-fit test of counts against a probability table.

    ``expected`` maps cells to probabilities; it must be positive on
    every observed cell.  Probability mass not covered by ``expected``
    is treated as an extra never-observed tail cell.  Cells whose
    expected count falls below 5 are pooled; with a single cell left the
    test is skipped (dof 0, p-value None).
    """
    n = sum(observed.values())
    if n <= 0:
        raise DomainError("chi_square requires a non-empty observation")
    for key, count in observed.items():
        if count < 0:
            raise DomainError(f"negative observed count at {key!r}")
        if count > 0 and float(expected.get(key, 0.0)) <= 0.0:
            raise DomainError(f"observed cell {key!r} has zero expected probability")
    pairs = [
        (float(observed.get(key, 0)), n * float(p))
        for key, p in expected.items()
        if float(p) > 0.0
    ]
    tail = 1.0 - sum(float(p) for p in expected.values())
    if tail > 1e-12:
        pairs.append((0.0, n * tail))
    pairs = _pool(pairs)
    if len(pairs) <= 1:
        return ChiSquareResult(0.0, 0, None, len(pairs), True)
    stat = sum((o - e) ** 2 / e for o, e in pairs)
    dof = len(pairs) - 1
    return ChiSquareResult(stat, dof, _gamma_p_value(stat, dof), len(pairs), False)


def chi_square_homogeneity(
    counts_a: Mapping[Hashable, int], counts_b: Mapping[Hashable, int]
) -> ChiSquareResult:
    """Two-sample test that two count tables draw from the same law.

    Standard 2 x k contingency chi-square with the same pooling rule
    applied to the column totals; dof = pooled columns - 1.
    """
    na, nb = sum(counts_a.values()), sum(counts_b.values())
    if na <= 0 or nb <= 0:
        raise DomainError("chi_square_homogeneity requires non-empty samples")
    keys = sorted(set(counts_a) | set(counts_b), key=repr)
    n = na + nb
    # pool columns by total expected mass, keeping the two rows aligned
    cols = [(counts_a.get(k, 0), counts_b.get(k, 0)) for k in keys]
    cols.sort(key=lambda ab: ab[0] + ab[1])
    pooled = [0, 0]
    kept: List[Tuple[int, int]] = []
    for a, b in cols:
        if min(na, nb) / n * (a + b) < POOL_THRESHOLD:
            pooled[0] += a
            pooled[1] += b
        else:
            kept.append((a, b))
    if sum(pooled) > 0:
        if kept and min(na, nb) / n * sum(pooled) < POOL_THRESHOLD:
            a0, b0 = kept[0]
            kept[0] = (a0 + pooled[0], b0 + pooled[1])
        else:
            kept.insert(0, (pooled[0], pooled[1]))
    if len(kept) <= 1:
        return ChiSquareResult(0.0, 0, None, len(kept), True)
    stat = 0.0
    for a, b in kept:
        tot = a + b
        ea, eb = na * tot / n, nb * tot / n
        stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    dof = len(kept) - 1
    return ChiSquareResult(stat, dof, _gamma_p_value(stat, dof), len(kept), False)


def fold_tail(
    observed: Mapping[int, int], expected: Mapping[int, float], tail_key: Hashable = "tail"
) -> Tuple[Dict[Hashable, int], Dict[Hashable, float]]:
    """Fold observations beyond the expected table into one tail cell.

    For integer-keyed histograms whose expected law is only tabulated up
    to some order: observed keys above the largest tabulated key are
    merged into ``tail_key``, whose expected probability is the residual
    mass 1 - sum(expected)."""
    cutoff = max(expected) if expected else -1
    obs: Dict[Hashable, int] = {}
    for k, v in observed.items():
        obs[tail_key if k > cutoff else k] = v + obs.get(
            tail_key if k > cutoff else k, 0
        )
    exp: Dict[Hashable, float] = dict(expected)
    residual = 1.0 - sum(float(p) for p in expected.values())
    if residual > 0.0:
        exp[tail_key] = residual
    return obs, exp


def bonferroni(p_values: Iterable[Optional[float]], alpha: float) -> bool:
    """True when every (non-skipped) p-value clears alpha / number-of-tests."""
    ps = [p for p in p_values if p is not None]
    if not ps:
        return True
    threshold = alpha / len(ps)
    return all(p > threshold for p in ps)


class TransitionCensus:
    """Counts of one-step transitions of the edge-profile chain.

    ``counts[from_state][to_state]`` is the number of observed
    transitions; censuses pooled over levels (and over workers) merge
    associatively.
    """

    def __init__(self) -> None:
        self.counts: Dict[Hashable, Dict[Hashable, int]] = {}

    def add(self, from_state: Hashable, to_state: Hashable, n: int = 1) -> None:
        if n < 0:
            raise DomainError("census increments must be nonnegative")
        row = self.counts.setdefault(from_state, {})
        row[to_state] = row.get(to_state, 0) + n

    def merge(self, other: "TransitionCensus") -> "TransitionCensus":
        for from_state, row in other.counts.items():
            for to_state, n in row.items():
                self.add(from_state, to_state, n)
        return self

    def row(self, from_state: Hashable) -> Dict[Hashable, int]:
        return dict(self.counts.get(from_state, {}))

    def row_total(self, from_state: Hashable) -> int:
        return sum(self.counts.get(from_state, {}).values())

    def rows(self) -> List[Hashable]:
        return sorted(self.counts, key=repr)

    def total(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())


def add_profile_transitions(
    census: TransitionCensus,
    x_plus: Mapping[int, int],
    x_minus: Mapping[int, int],
    level_range: Iterable[int],
    history: Optional[TransitionCensus] = None,
) -> None:
    """Record the level-m -> level-(m+1) transitions of one profile.

    States are (up-edge count, down-edge count) between labels m-1 and
    m.  When ``history`` is given it additionally records transitions
    keyed by ((previous state, from state) -> to state) for
    history-dependence tests.
    """

    def state(m: int) -> Tuple[int, int]:
        return (x_plus.get(m, 0), x_minus.get(m, 0))

    for m in level_range:
        if m < 1:
            raise DomainError("profile levels start at 1")
        census.add(state(m), state(m + 1))
        if history is not None and m >= 2:
            history.add((state(m - 1), state(m)), state(m + 1))


def markov_census(
    trees: Iterable,
    level_range: Iterable[int],
    history: Optional[TransitionCensus] = None,
) -> TransitionCensus:
    """Pool edge-profile chain transitions over a stream of trees.

    ``level_range`` lists the levels m (>= 1) whose transition
    (X_m, X_{m+1}) is counted for every tree; time homogeneity of the
    chain licenses pooling across levels.
    """
    levels = list(level_range)
    census = TransitionCensus()
    for t in trees:
        prof = edge_profile(t)
        add_profile_transitions(census, prof.x_plus, prof.x_minus, levels, history)
    return census


class HomogeneityReport(NamedTuple):
    tests: int
    p_values: Tuple[Optional[float], ...]
    ok: bool


def history_homogeneity(
    history: TransitionCensus, min_visits: int, alpha: float
) -> HomogeneityReport:
    """Pairwise two-sample tests that rows sharing a from-state agree.

    ``history`` must be keyed by (previous state, from state).  For each
    from-state with at least two history groups of ``min_visits``
    observations, adjacent group pairs are compared; the verdict applies
    a Bonferroni correction at level ``alpha``.
    """
    groups: Dict[Hashable, List[Dict[Hashable, int]]] = {}
    for (prev, from_state), row in sorted(history.counts.items(), key=repr):
        if sum(row.values()) >= min_visits:
            groups.setdefault(from_state, []).append(row)
    p_values: List[Optional[float]] = []
    for from_state in sorted(groups, key=repr):
        rows = groups[from_state]
        for a, b in zip(rows, rows[1:]):
            p_values.append(chi_square_homogeneity(a, b).p_value)
    return HomogeneityReport(
        len(p_values), tuple(p_values), bonferroni(p_values, alpha)
    )
