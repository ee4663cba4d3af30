"""Statistical machinery for Monte Carlo verification of distributional claims.

Provides the Pearson chi-square goodness-of-fit test (with standard
small-cell pooling), transition censuses of the vertical edge-profile
chain pooled across levels, and a Bonferroni helper for multi-row
sweeps.  All p-values come from the finite series of the chi-square
tail at integer degrees of freedom.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DomainError

POOL_THRESHOLD = 5.0


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    p_value: Optional[float]
    cells: int


def _gamma_p_value(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square law with k = ``dof`` degrees, at h = statistic/2:
    e^-h·Σ_{i<k/2} h^i/i! for even k, erfc(√h) + e^-h·Σ_{i<(k-1)/2} h^(i+1/2)/Γ(i+3/2)
    for odd k (Abramowitz & Stegun 26.4.4-5), summed from the logs of its terms,
    shifted by the largest, so that none overflows or underflows."""
    if statistic <= 0.0:
        return 1.0
    h, log_h, half = statistic / 2, math.log(statistic / 2), dof % 2 / 2
    logs = [(i + half) * log_h - h - math.lgamma(i + half + 1) for i in range(dof // 2)]
    top = max(logs, default=0.0)
    head = math.erfc(math.sqrt(h)) if half else 0.0
    return head + math.exp(top) * math.fsum(math.exp(t - top) for t in logs)


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
        return ChiSquareResult(0.0, 0, None, len(pairs))
    stat = sum((o - e) ** 2 / e for o, e in pairs)
    dof = len(pairs) - 1
    return ChiSquareResult(stat, dof, _gamma_p_value(stat, dof), len(pairs))


def fold_tail(
    observed: Mapping[int, int], expected: Mapping[int, float]
) -> Tuple[Dict[Hashable, int], Dict[Hashable, float]]:
    """Fold observations beyond the expected table into one tail cell.

    For integer-keyed histograms whose expected law is only tabulated up
    to some order: observed keys above the largest tabulated key are
    merged into the key ``"tail"``, whose expected probability is the
    residual mass 1 - sum(expected)."""
    cutoff = max(expected) if expected else -1
    obs: Dict[Hashable, int] = {}
    for k, v in observed.items():
        key = "tail" if k > cutoff else k
        obs[key] = v + obs.get(key, 0)
    exp: Dict[Hashable, float] = dict(expected)
    residual = 1.0 - sum(float(p) for p in expected.values())
    if residual > 0.0:
        exp["tail"] = residual
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
) -> None:
    """Record the level-m -> level-(m+1) transitions of one profile.

    States are (up-edge count, down-edge count) between labels m-1 and
    m.
    """

    def state(m: int) -> Tuple[int, int]:
        return (x_plus.get(m, 0), x_minus.get(m, 0))

    for m in level_range:
        if m < 1:
            raise DomainError("profile levels start at 1")
        census.add(state(m), state(m + 1))
