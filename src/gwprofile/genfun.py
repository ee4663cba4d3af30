"""Generating functions of excursion leaf counts.

For a tree model, let ν be the law of the number of label-0 leaves of a
positive label excursion, and g_ν its probability generating function.
g_ν satisfies a reduced functional equation obtained by summing the model's
excursion recursion over arities; for each built-in model that equation
forces g_ν onto an explicit quadratic algebraic curve F(x, y) = 0 with a
closed-form solution by radicals.

This module computes g_ν exactly by one production route and two check
routes:

- :func:`nu_table` (production) computes h = √((a−z)(1−z)³) by the linear
  recurrence of its differential equation 2R·h′ = R′·h, then g_ν from the
  radical closed form by a degree-≤2 division recurrence: O(order)
  operations.  Before returning it runs :func:`_verified_curve` and an
  exact O(order) certificate (:func:`_certify`) that the result lies on
  the verified curve;
- :func:`closed_form_series` (check) expands the radical closed form with
  the generic series square root, whose Taylor recurrence runs on
  integers, and a generic Fraction series division;
- :func:`solve_nu_gf` (check) expands the algebraic curve by series Newton
  iteration on Fraction series.

The curve F(x, y) is one bivariate polynomial, a dict {(i, j): c} for
c·x^i·y^j, built once and verified at runtime by :func:`_verified_curve`
in exact arithmetic.  The check routes cost O(order²) operations and
more; tests and benchmarks compare them with :func:`nu_table`.  Neither
shares a recurrence with it: the square root is the generic
Σ s_j·s_{k−j} recurrence, not the differential equation of h.

Also here: the convolution tables f_p(q) (p-fold convolutions of ν), the
joint leaf/edge tables f̃_p(q, l), convolved on integers and, for
incomplete-binary, certified by one step of the bivariate fixed-point map
that :func:`bivariate_fixed_point` iterates on plain Fraction tables as
the reference route, and the estimators of the singular expansion of
g_ν near 1, on Fractions with one integer square root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Dict, List, Sequence, Tuple

from .errors import ConfigurationError, DomainError, IntegrityError, ResourceLimitError
from .model import TreeModel, builtin_model
from .series import RationalSeries, _integer_scale

# ---------------------------------------------------------------------------
# Per-model algebraic data.
#
# Closed forms: g(z) = (num(z) + coef * sqrt((a - z)(1 - z)^3)) / den(z),
# polynomials given by ascending coefficient lists.
#
# Curves: F(x, y) = (den(x) y - num(x))^2 - coef^2 (a - x)(1 - x)^3, so
# that F(z, g(z)) = 0.
#
# Functional equations, reduced over arities (G = g_ν, x the variable):
#   geom-pm1:          G = 2 / (4 - x - G∘G)
#   geom-pm01:         G = 3 / (6 - x - G - G∘G)
#   incomplete-binary: G = (1 + x)(1 + G∘G) / 4
#   complete-binary:   G = (1 + x·G∘G) / 2
# Each is solved for the composed term: G∘G = R(x, G) with R = Rnum/Rden
# below (Rnum, Rden polynomials in x and y).  The runtime verification in
# :func:`_verified_curve` proves, by exact reduction, that the curve is
# invariant under (x, y) -> (y, R(x, y)), which is the algebraic content
# of the functional equation.
# ---------------------------------------------------------------------------

_MODEL_DATA = {
    "geom-pm1": {
        "num": (-4, 9, -2),
        "coef": Fraction(2),
        "a": 4,
        "den": (0, 4, -1),
        "c0": Fraction(5, 8),
        # R(x, y) = (4y - xy - 2) / y
        "r_num": {(0, 1): 4, (1, 1): -1, (0, 0): -2},
        "r_den": {(0, 1): 1},
    },
    "geom-pm01": {
        "num": (-3, 6, -1),
        "coef": Fraction(1),
        "a": 9,
        "den": (0, 2),
        "c0": Fraction(2, 3),
        # R(x, y) = (6y - xy - y^2 - 3) / y
        "r_num": {(0, 1): 6, (1, 1): -1, (0, 2): -1, (0, 0): -3},
        "r_den": {(0, 1): 1},
    },
    "incomplete-binary": {
        "num": (-3, 16, -1),
        "coef": Fraction(1),
        "a": 49,
        "den": (10, 2),
        "c0": Fraction(2, 5),
        # R(x, y) = (4y - 1 - x) / (1 + x)
        "r_num": {(0, 1): 4, (0, 0): -1, (1, 0): -1},
        "r_den": {(0, 0): 1, (1, 0): 1},
    },
    "complete-binary": {
        "num": (-3, 10, -1),
        "coef": Fraction(1),
        "a": 25,
        "den": (4, 2),
        "c0": Fraction(1, 2),
        # R(x, y) = (2y - 1) / x
        "r_num": {(0, 1): 2, (0, 0): -1},
        "r_den": {(1, 0): 1},
    },
}


def _require_builtin(model: TreeModel) -> dict:
    data = _MODEL_DATA.get(model.name)
    if data is None or builtin_model(model.name).key != model.key:
        raise ConfigurationError(
            "exact generating functions are available for the four built-in "
            f"models only, not {model.name!r}"
        )
    return data


# -- bivariate polynomials: dicts {(i, j): c} for c·x^i·y^j, zeros dropped --


def _bisum(*products) -> dict:
    """Σ a·b over the given (a, b) pairs of bivariate polynomials."""
    out: dict = {}
    for a, b in products:
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _pseudo_remainder(n: dict, f: dict) -> dict:
    """r with lc(f)^k·n = s·f + r and deg_y r < deg_y f, over Q[x].

    Each step multiplies n by f's leading coefficient in y and subtracts
    the multiple of f that cancels n's leading term: no division in Q(x).
    """
    d = max(j for _, j in f)
    lead = {(i, 0): c for (i, j), c in f.items() if j == d}
    while n and max(j for _, j in n) >= d:
        top = max(j for _, j in n)
        cancel = {(i, j - d): -c for (i, j), c in n.items() if j == top}
        n = _bisum((lead, n), (cancel, f))
    return n


def _radicand(data: dict) -> List[int]:
    """R = (a − z)(1 − z)³ as ascending integer coefficients."""
    a = data["a"]
    return [a, -3 * a - 1, 3 * a + 3, -a - 3, 1]


@lru_cache(maxsize=None)
def _verified_curve(name: str) -> Tuple[dict, Fraction]:
    """Return the x-stripped curve of a builtin, after runtime verification.

    The curve is F(x, y) = (den(x)·y − num(x))² − coef²·R(x), one
    bivariate polynomial.  Checks, all in exact rational arithmetic:

    1. invariance: F(y, R(x, y)) ≡ 0 modulo F(x, y) over Q(x)[y], where
       G∘G = R(x, G) is the model's reduced functional equation solved for
       the composed term — i.e. the curve is consistent with the equation.
       With R = Rn/Rd, the polynomial N = Σ c·y^i·Rn^j·Rd^(2−j) over the
       terms c·x^i·y^j of F is F(y, R)·Rd², and its pseudo-remainder by F
       in y over Q[x] must vanish.  F's leading coefficient den² is a unit
       of Q(x), so this is division over Q(x)[y];
    2. criticality: F(1, 1) = 0 (g_ν(1) = 1), the sum of F's coefficients;
    3. branch: after stripping the smallest power of x, the constant term
       c0 is a simple root of F̃(0, y), so the curve has a unique
       power-series branch with that constant term.

    Returns the stripped curve F̃ and c0.
    """
    data = _MODEL_DATA[name]
    line = {(i, 1): c for i, c in enumerate(data["den"])}
    line.update({(i, 0): -c for i, c in enumerate(data["num"])})
    radicand = {(i, 0): c for i, c in enumerate(_radicand(data))}
    curve = _bisum((line, line), ({(0, 0): -data["coef"] ** 2}, radicand))

    # (1) invariance under (x, y) -> (y, G∘G).
    rn, rd = data["r_num"], data["r_den"]
    powers = [_bisum((rd, rd)), _bisum((rn, rd)), _bisum((rn, rn))]  # Rn^j·Rd^(2−j)
    numerator = _bisum(*(({(0, i): c}, powers[j]) for (i, j), c in curve.items()))
    if _pseudo_remainder(numerator, curve):
        raise IntegrityError(
            f"curve for {name!r} is not invariant under its functional equation"
        )

    # (2) criticality.
    if sum(curve.values()) != 0:
        raise IntegrityError(f"curve for {name!r} fails F(1,1) = 0")

    # (3) strip the smallest power of x and check the branch point.
    low = min(i for i, _ in curve)
    curve = {(i - low, j): c for (i, j), c in curve.items()}
    c0 = data["c0"]
    at_zero = [(j, c) for (i, j), c in curve.items() if i == 0]
    value = sum(c * c0**j for j, c in at_zero)
    slope = sum(j * c * c0 ** (j - 1) for j, c in at_zero if j)
    if value != 0 or slope == 0:
        raise IntegrityError(
            f"curve for {name!r}: {c0} is not a simple root at x = 0"
        )
    return curve, c0


# -- the two exact routes ----------------------------------------------------

# Working-order slack: closed-form and Newton routes divide by polynomials
# vanishing at 0 (valuation <= 2 across the four models), which costs top
# coefficients; computing with extra order keeps the requested range exact.
_SLACK = 4


def closed_form_series(model: TreeModel, order: int) -> RationalSeries:
    """g_ν to the given order via the radical closed form (exact)."""
    data = _require_builtin(model)
    if order < 0:
        raise DomainError("order must be >= 0")
    w = order + _SLACK
    num = RationalSeries.from_polynomial(data["num"], w)
    den = RationalSeries.from_polynomial(data["den"], w)
    a = Fraction(data["a"])
    radicand = RationalSeries.from_polynomial([a, -1], w)
    one_minus = RationalSeries.from_polynomial([1, -1], w)
    radicand = radicand * one_minus * one_minus * one_minus
    g = (num + data["coef"] * radicand.sqrt()) / den
    return g.truncate(order)


def solve_nu_gf(model: TreeModel, order: int) -> RationalSeries:
    """g_ν to the given order via the runtime-verified algebraic curve.

    Series Newton iteration on the x-stripped curve F̃(x, y) = 0 starting
    from the constant branch point; the result is certified by checking
    F̃(x, g) ≡ 0 to the working order before returning.
    """
    data = _require_builtin(model)
    if order < 0:
        raise DomainError("order must be >= 0")
    curve, c0 = _verified_curve(model.name)
    w = order + _SLACK
    degree = max(i for i, _ in curve)
    p0, p1, p2 = (
        RationalSeries.from_polynomial(
            [curve.get((i, j), 0) for i in range(degree + 1)], w
        )
        for j in range(3)
    )
    g = RationalSeries.constant(c0, w)
    for _ in range(w.bit_length() + 3):
        f_val = (p2 * g + p1) * g + p0
        f_slope = 2 * p2 * g + p1
        step = f_val / f_slope
        new_g = g - step
        if new_g == g:
            break
        g = new_g
    else:
        raise IntegrityError("Newton iteration on the curve did not stabilize")
    residual = (p2 * g + p1) * g + p0
    if any(c != 0 for c in residual.coeffs):
        raise IntegrityError("curve branch residual is nonzero")
    return g.truncate(order)


def _radical_series(r: Sequence[int], w: int) -> List[Fraction]:
    """h_0..h_w of h = √R for a quartic R with a square constant term.

    h satisfies 2R·h′ = R′·h.  Reading off z^n gives, with r_j = 0 past
    the degree and h_k = 0 for k < 0,

        2 r_0 (n+1) h_{n+1} = −Σ_{i=1..4} r_i (2n + 2 − 3i) h_{n+1−i},

    so each coefficient costs four multiplications.
    """
    h = [Fraction(math.isqrt(r[0]))]  # _certify checks that it squares to r_0
    inv = 1 / Fraction(2 * r[0])
    for n in range(w):
        acc = 0
        for i in range(1, min(4, n + 1) + 1):
            acc += r[i] * (2 * n + 2 - 3 * i) * h[n + 1 - i]
        h.append(-acc * inv / (n + 1))
    return h


def _certify(
    data: dict, r: Sequence[int], h: Sequence[Fraction], g: Sequence[Fraction], c0
) -> None:
    """Exact O(order) certificate that g lies on the model's curve.

    Checks h_0² = a; that 2R·h′ − R′·h vanishes coefficient by coefficient
    to the working order, which with h_0² = R(0) gives h² = R there
    ((h²/R)′ = 0); that den·g = num + coef·h to the working order; and that
    g_0 = c0.  Then (den·g − num)² = coef²·R, which is F(z, g) = 0, and g
    is the branch of the verified curve with constant term c0.
    """
    w = len(h) - 1
    if h[0] ** 2 != r[0]:
        raise IntegrityError("radical constant term does not square to a")
    for n in range(w):
        hi = min(4, n + 1)
        lhs = sum(2 * r[i] * (n + 1 - i) * h[n + 1 - i] for i in range(hi + 1))
        rhs = sum(i * r[i] * h[n + 1 - i] for i in range(1, hi + 1))
        if lhs != rhs:
            raise IntegrityError(f"radical ODE residual is nonzero at z^{n}")
    num, den, coef = data["num"], data["den"], data["coef"]
    for n in range(w + 1):
        lhs = sum(
            den[j] * g[n - j] for j in range(len(den)) if 0 <= n - j < len(g)
        )
        rhs = (num[n] if n < len(num) else 0) + coef * h[n]
        if lhs != rhs:
            raise IntegrityError(f"den·g differs from num + coef·h at z^{n}")
    if g[0] != c0:
        raise IntegrityError(f"series constant term {g[0]} is not the branch {c0}")


def nu_table(model: TreeModel, order: int) -> Tuple[Fraction, ...]:
    """ν(0..order) as exact rationals (coefficients of g_ν).

    Production route: h = √((a−z)(1−z)³) by its holonomic recurrence,
    then g = (num + coef·h)/den by the degree-≤2 division recurrence after
    stripping den's valuation; O(order) operations in all.  The curve is
    verified by :func:`_verified_curve` and g is certified on it by
    :func:`_certify` before returning.
    """
    data = _require_builtin(model)
    if order < 0:
        raise DomainError("order must be >= 0")
    _, c0 = _verified_curve(model.name)
    r = _radicand(data)
    den = data["den"]
    v = next(j for j, c in enumerate(den) if c)
    d = den[v:]
    w = order + v
    h = _radical_series(r, w)
    num, coef = data["num"], data["coef"]
    numer = [(num[n] if n < len(num) else 0) + coef * h[n] for n in range(w + 1)]
    g: List[Fraction] = []
    for k in range(order + 1):
        acc = numer[k + v]
        for j in range(1, len(d)):
            if k >= j:
                acc -= d[j] * g[k - j]
        g.append(acc / d[0])
    _certify(data, r, h, g, c0)
    return tuple(g)


# -- convolution tables ------------------------------------------------------


def f_table(nu: Sequence, p_max: int, q_max: int) -> List[List]:
    """f_p(q) for p <= p_max, q <= q_max: p-fold convolutions of ν.

    Exact when ``nu`` holds Fractions; works identically on floats.
    ``nu`` must reach index q_max.
    """
    if len(nu) <= q_max:
        raise DomainError(
            f"nu table reaches index {len(nu) - 1} < q_max = {q_max}"
        )
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


# -- joint leaf/edge tables --------------------------------------------------


def _excursion_joint_gf(model: TreeModel, l_max: int) -> List[Dict[int, Fraction]]:
    """Joint law of (label-0 leaves, edges) of one positive excursion.

    Returns ``table[l][q]`` = Π⁺-mass of excursions with l edges and q
    label-0 leaves, by dynamic programming over subtrees rooted at positive
    labels (finite because every child consumes one edge).  Each helper
    returns a dict q -> mass, for an exact edge budget.
    """
    off = model.offspring
    disp = model.displacement
    per_child = disp.per_child_support()
    memo = lru_cache(maxsize=None)

    @memo
    def subtree(j: int, budget: int) -> Dict[int, Fraction]:
        """Subtrees rooted at label j >= 1 with ``budget`` edges, labels
        >= 0 and label-0 vertices leaves; a label-0 root is such a leaf."""
        if j == 0:
            return {1: Fraction(1)} if budget == 0 else {}
        out: Dict[int, Fraction] = {}
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

    def split(first, rest, budget: int) -> Dict[int, Fraction]:
        """Σ_b first(b)·rest(budget − b)."""
        out: Dict[int, Fraction] = {}
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
    def child_gf(j: int, budget: int) -> Dict[int, Fraction]:
        """One iid child of a label-j vertex, ``budget`` edges below its edge."""
        out: Dict[int, Fraction] = {}
        for inc, w in per_child:
            if j + inc >= 0:
                for q, mass in subtree(j + inc, budget).items():
                    out[q] = out.get(q, Fraction(0)) + w * mass
        return out

    @memo
    def forest_gf(j: int, d: int, budget: int) -> Dict[int, Fraction]:
        """d iid children of a label-j vertex, ``budget`` edges below theirs."""
        if d == 0:
            return {0: Fraction(1)} if budget == 0 else {}
        return split(partial(child_gf, j), partial(forest_gf, j, d - 1), budget)

    @memo
    def vec_forest(j: int, vec: tuple, budget: int) -> Dict[int, Fraction]:
        """Children of a label-j vertex with increments ``vec``, likewise."""
        if not vec:
            return {0: Fraction(1)} if budget == 0 else {}
        head, tail = vec[0], vec[1:]
        return split(partial(subtree, j + head), partial(vec_forest, j, tail), budget)

    return [dict(subtree(1, l)) for l in range(l_max + 1)]


def _convolve(a: List[List[int]], b: List[List[int]], q_max: int, l_max: int) -> list:
    """The product of two integer tables ``[q][l]``, truncated at (q_max, l_max)."""
    b_cells = [[(l, n) for l, n in enumerate(row) if n] for row in b[: q_max + 1]]
    out = [[0] * (l_max + 1) for _ in range(q_max + 1)]
    for q1, row in enumerate(a):
        for l1, w in enumerate(row):
            if w:
                for q2, cells in enumerate(b_cells[: q_max + 1 - q1]):
                    dst = out[q1 + q2]
                    for l2, n in cells:
                        if l1 + l2 > l_max:
                            break
                        dst[l1 + l2] += w * n
    return out


def joint_table(
    model: TreeModel, p_max: int, q_max: int, l_max: int
) -> List[List[List[Fraction]]]:
    """f̃_p(q, l) = P(total label-0 leaves = q, total edges = l) over p
    independent positive excursions; exact rationals, ``table[p][q][l]``.

    The single-excursion table is rescaled once, f̃₁(q, l) = φ₀·N[q][l]/c^l
    with N integral and φ₀ = f̃₁(0, 0) (the scale search checks the
    division is exact); the p-fold powers of N are convolved on ints.
    Every nonzero cell has q <= l, since each label-0 leaf is a non-root
    vertex (checked); the incomplete-binary table is also certified by
    :func:`_certify_fixed_point`.
    """
    if p_max < 0 or q_max < 0 or l_max < 0:
        raise DomainError("table bounds must be >= 0")
    if (q_max + 1) * (l_max + 1) * (p_max + 1) > 4_000_000:
        raise ResourceLimitError("joint table exceeds the memory budget")
    single = _excursion_joint_gf(model, l_max)
    cells = [(q, l, w) for l, row in enumerate(single) for q, w in row.items() if w]
    for q, l, _ in cells:
        if q > l:
            raise IntegrityError(f"single-excursion cell (q={q}, l={l}) has q > l")
    phi0 = single[0].get(0) or Fraction(1)  # ξ(0), or 1 for a model without leaves
    c, scaled = _integer_scale((l, w / phi0) for _, l, w in cells)
    base = [[0] * (l_max + 1) for _ in range(max(q_max, l_max) + 1)]
    for (q, l, _), n in zip(cells, scaled):
        base[q][l] = n
    if model.key == builtin_model("incomplete-binary").key:
        _certify_fixed_point(base[: l_max + 1], phi0, c)

    zero = Fraction(0)
    power = [[1] + [0] * l_max] + [[0] * (l_max + 1) for _ in range(q_max)]
    tables = []
    for p in range(p_max + 1):
        if p:
            power = _convolve(power, base, q_max, l_max)
        num = phi0.numerator**p
        dens = [phi0.denominator**p * c**l for l in range(l_max + 1)]
        rows = [zip(row, dens) for row in power]
        table = [[Fraction(num * n, d) if n else zero for n, d in r] for r in rows]
        tables.append(table)
    return tables


def _certify_fixed_point(n: List[List[int]], phi0: Fraction, c: int) -> None:
    """Check B = T(B), T(B) = ¼(1 + zu)(1 + u·B(B(z, u), u)), once.

    B = Σ φ₀·n[q][l]·c^−l z^q u^l is the incomplete-binary single-excursion
    table on q, l <= L.  Tables that agree mod u^k have compositions
    B(B, u) that agree mod u^k, and T multiplies their difference by u, so
    T has one fixed point mod u^(L+1): the one that iterating T from 0
    reaches (:func:`bivariate_fixed_point`), which a passing table equals.
    Every q <= l, so the terms b_i(u)·B^i of B(B, u) with i > L vanish there.

    On integers, with v = u/c, Ñ = Σ n[q][l] z^q v^l, row polynomials
    n_i(v) and φ₀ = a/d: B(B, u) = φ₀·Σ_i φ₀^i·n_i·Ñ^i = φ₀·G_0/d^L by the
    Horner scheme G_L = n_L, G_k = d^(L−k)·n_k + a·Ñ·G_(k+1), and B = T(B)
    reads 4a·d^L·Ñ = (1 + c·zv)(d^(L+1) + c·a·v·G_0).
    """
    a, d, L = phi0.numerator, phi0.denominator, len(n) - 1
    g = [list(n[L])] + [[0] * (L + 1) for _ in range(L)]
    for k in range(L - 1, -1, -1):
        g = [[a * x for x in row] for row in _convolve(n, g, L, L)]
        g[0] = [x + d ** (L - k) * y for x, y in zip(g[0], n[k])]
    e = [[0] + [c * a * x for x in row[:L]] for row in g]  # d^(L+1) + c·a·v·G_0
    e[0][0] += d ** (L + 1)
    for q in range(L + 1):
        for l in range(L + 1):
            rhs = e[q][l] + (c * e[q - 1][l - 1] if q and l else 0)
            if rhs != 4 * a * d**L * n[q][l]:
                raise IntegrityError(f"fixed-point certificate fails at (q={q}, l={l})")


def bivariate_fixed_point(z_order: int, u_order: int) -> List[List[Fraction]]:
    """Solve B(z,u) = ¼(1 + z u)(1 + u B(B(z,u), u)) exactly, by iteration.

    B is the joint generating function of (label-0 leaves, edges) of one
    positive incomplete-binary excursion, returned as ``b[q][l]``, the
    coefficient of z^q u^l.  Because the coefficient of z^k in B has
    u-valuation >= k, the truncated iteration stabilizes exactly after at
    most u_order + 2 steps (checked).  This is the independent reference
    route for :func:`joint_table`, which certifies its table by one
    application of the same map instead; the tests compare the two.  It
    works on plain Fraction tables with its own truncated product, so it
    shares no arithmetic with the route it checks.
    """
    nz = max(z_order, u_order)
    nu = u_order
    quarter = Fraction(1, 4)

    def times(a, c):
        """The product of two ``[z][u]`` tables, truncated at (nz, nu)."""
        out = [[Fraction(0)] * (nu + 1) for _ in range(nz + 1)]
        for q1, row in enumerate(a):
            for l1, x in enumerate(row):
                if x:
                    for q2 in range(nz + 1 - q1):
                        dst, src = out[q1 + q2], c[q2]
                        for l2 in range(nu + 1 - l1):
                            if src[l2]:
                                dst[l1 + l2] += x * src[l2]
        return out

    b = [[Fraction(0)] * (nu + 1) for _ in range(nz + 1)]
    for _ in range(nu + 3):
        # B(B, u) = Σ_i b_i(u)·B^i by Horner; rows i > nu vanish mod u^(nu+1).
        composed = [[Fraction(0)] * (nu + 1) for _ in range(nz + 1)]
        for i in range(min(nz, nu), -1, -1):
            composed = times(composed, b)
            composed[0] = [x + y for x, y in zip(composed[0], b[i])]
        # e = 1 + u·B(B, u), and T(B) = ¼(1 + zu)·e = ¼(e + zu·e).
        e = [[Fraction(0)] + row[:nu] for row in composed]
        e[0][0] += 1
        zu_e = [[Fraction(0)] * (nu + 1)]
        zu_e += [[Fraction(0)] + row[:nu] for row in e[:nz]]
        new_b = [[quarter * (x + y) for x, y in zip(r, s)] for r, s in zip(e, zu_e)]
        if new_b == b:
            return [row[: u_order + 1] for row in b[: z_order + 1]]
        b = new_b
    raise IntegrityError("bivariate fixed point failed to stabilize")


# -- singular expansion ------------------------------------------------------


def _sqrt(x: Fraction) -> Fraction:
    """√x for a rational x > 0 to a relative 2^-320, by one integer square root."""
    return Fraction(math.isqrt(x.numerator * x.denominator << 640), x.denominator << 320)


def _closed_form_at(model: TreeModel, z_eval: Fraction) -> Tuple[Fraction, Fraction]:
    """z_eval in (0, 1) as a Fraction, and g(z), exact but for one square root."""
    z = Fraction(z_eval)
    if not (0 < z < 1):
        raise DomainError("z_eval must lie in (0, 1)")
    data = _require_builtin(model)
    num = sum(c * z**i for i, c in enumerate(data["num"]))
    den = sum(c * z**i for i, c in enumerate(data["den"]))
    return z, (num + data["coef"] * _sqrt((data["a"] - z) * (1 - z) ** 3)) / den


def singular_coefficient(model: TreeModel, z_eval: Fraction) -> float:
    """(g(z) - 1 + (1-z)) / (1-z)^{3/2} at a rational z in (0, 1).

    Available for all four built-ins and reported as a measurement.  For
    the iid-displacement models geom-pm1 and geom-pm01, where the per-edge
    displacement variance is unambiguous, its limit as z -> 1 is
    sqrt(2/3) * σ_ξ / σ_η; no closed form for the limit is asserted for
    the other two.
    """
    z, g = _closed_form_at(model, z_eval)
    return float((g - 1 + (1 - z)) / ((1 - z) * _sqrt(1 - z)))


def linear_coefficient(model: TreeModel, z_eval: Fraction) -> float:
    """(g(z) - 1) / (1 - z) at a rational z in (0, 1); tends to -1 as z -> 1."""
    z, g = _closed_form_at(model, z_eval)
    return float((g - 1) / (1 - z))
