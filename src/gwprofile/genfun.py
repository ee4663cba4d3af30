"""Generating functions of excursion leaf counts.

For a tree model, let ν be the law of the number of label-0 leaves of a
positive label excursion, and g_ν its probability generating function.
g_ν satisfies a reduced functional equation obtained by summing the model's
excursion recursion over arities; for each built-in model that equation
forces g_ν onto an explicit quadratic algebraic curve F(x, y) = 0 with a
closed-form solution by radicals.

This module computes g_ν exactly by one production route and two check
routes:

- :func:`nu_table` (production) computes h = √((a−z)(1−z)³) by
  :func:`_power` at α = ½, J. C. P. Miller's power recurrence, here the
  recurrence of h's differential equation 2R·h′ = R′·h; then g_ν from
  the radical closed form by a degree-≤2 division recurrence: O(order)
  operations, all on Python ints (h_n·(4a)^n and g_k·(4a)^(k+v)·d_0^(k+1)
  are integers), with one Fraction built per coefficient at the end.
  Before that it runs :func:`_verified_curve` and an exact O(order)
  certificate (:func:`_certify`), on the same ints, that the result lies
  on the verified curve;
- :func:`closed_form_series` (check) expands the same radical closed form
  by another recurrence: h by the Taylor recurrence of h² = R
  (:func:`_taylor_sqrt`, on ints), then a Fraction division by den;
- :func:`solve_nu_gf` (check) never uses the closed form: it fixes the
  branch of the verified curve through c0 one coefficient at a time, on
  Fractions.

The curve F(x, y) is one bivariate polynomial, a dict {(i, j): c} for
c·x^i·y^j, built once and verified at runtime by :func:`_verified_curve`
in exact arithmetic.  The check routes cost O(order²) operations; tests
and benchmarks compare them with :func:`nu_table`.  Each shares only the
model data, :func:`_radicand` and :func:`_verified_curve` with it, and
calls none of its recurrences or its certificate.

Also here: the convolution tables f_p(q), p-fold convolutions of ν by
:func:`_convolve`, the joint tables' product, on Fractions or floats; the
joint leaf/edge tables f̃_p(q, l), whose single-excursion law
(:func:`_excursion_joint_gf`) is a bottom-up DP by edge budget that hands
:func:`joint_table` its integers (n, c, c_w) over the known denominators
c^(2l+1−q)·c_w^l, convolved on the same ints and, for incomplete-binary,
certified on them by one step of the bivariate fixed-point map that
:func:`bivariate_fixed_point` iterates on plain Fraction tables as the
reference route; and the estimators of the singular expansion of g_ν
near 1, on Fractions with one integer square root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .errors import ConfigurationError, DomainError, IntegrityError, ResourceLimitError
from .model import TreeModel, builtin_model

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
        "coef": 2,
        "a": 4,
        "den": (0, 4, -1),
        "c0": Fraction(5, 8),
        # R(x, y) = (4y - xy - 2) / y
        "r_num": {(0, 1): 4, (1, 1): -1, (0, 0): -2},
        "r_den": {(0, 1): 1},
    },
    "geom-pm01": {
        "num": (-3, 6, -1),
        "coef": 1,
        "a": 9,
        "den": (0, 2),
        "c0": Fraction(2, 3),
        # R(x, y) = (6y - xy - y^2 - 3) / y
        "r_num": {(0, 1): 6, (1, 1): -1, (0, 2): -1, (0, 0): -3},
        "r_den": {(0, 1): 1},
    },
    "incomplete-binary": {
        "num": (-3, 16, -1),
        "coef": 1,
        "a": 49,
        "den": (10, 2),
        "c0": Fraction(2, 5),
        # R(x, y) = (4y - 1 - x) / (1 + x)
        "r_num": {(0, 1): 4, (0, 0): -1, (1, 0): -1},
        "r_den": {(0, 0): 1, (1, 0): 1},
    },
    "complete-binary": {
        "num": (-3, 10, -1),
        "coef": 1,
        "a": 25,
        "den": (4, 2),
        "c0": Fraction(1, 2),
        # R(x, y) = (2y - 1) / x
        "r_num": {(0, 1): 2, (0, 0): -1},
        "r_den": {(1, 0): 1},
    },
}


def _require_builtin(model: TreeModel, order: int = 0) -> dict:
    """The model's algebraic data; refuses a non-builtin model, then order < 0."""
    data = _MODEL_DATA.get(model.name)
    if data is None or builtin_model(model.name).key != model.key:
        raise ConfigurationError(
            "exact generating functions are available for the four built-in "
            f"models only, not {model.name!r}"
        )
    if order < 0:
        raise DomainError("order must be >= 0")
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


# -- the two check routes ----------------------------------------------------


class RationalSeries(NamedTuple):
    """The coefficients g_0..g_order that a check route returns, as Fractions.

    It holds no arithmetic; it stays a named type only because callers,
    the benchmark's exact-tables workload and the tests, read ``.coeffs``.
    """

    coeffs: Tuple[Fraction, ...]


def _taylor_sqrt(r: Sequence[int], w: int) -> List[int]:
    """S_0..S_w, S_k = h_k·(4a)^k, of h = √r for an integer radicand r, a = r_0.

    With σ_k = t_k·(4a)^k for t = √(r/a), the Taylor recurrence of t² = r/a
    is 2σ_k = r_k·4^k·a^(k−1) − Σ_{j=1..k−1} σ_j·σ_{k−j} with σ_0 = 1, on
    ints (binom(1/2, m)·4^m is one), and S_k = √a·σ_k.  The sum takes
    half of its symmetric terms, doubled, and the middle square.  A
    constant term that is not a positive square, or a remainder, raises
    IntegrityError.
    """
    a = r[0]
    root = math.isqrt(max(a, 0))
    if a <= 0 or root * root != a:
        raise IntegrityError(
            f"the radicand needs a positive constant term that is a square, not {a}"
        )
    sigma = [1]
    for k in range(1, w + 1):
        half = sum(sigma[j] * sigma[k - j] for j in range(1, (k + 1) // 2))
        middle = sigma[k // 2] ** 2 if k % 2 == 0 else 0
        beta = r[k] * 4**k * a ** (k - 1) if k < len(r) else 0
        step, rem = divmod(beta - middle, 2)
        if rem:
            raise IntegrityError("Taylor square root recurrence left a remainder")
        sigma.append(step - half)
    return [root * x for x in sigma]


def closed_form_series(model: TreeModel, order: int) -> RationalSeries:
    """g_ν to the given order via the radical closed form (exact).

    h = √((a−z)(1−z)³) by :func:`_taylor_sqrt`; then, with den = z^v·d,
    the Fraction division recurrence d_0·g_k = (num + coef·h)_{k+v} −
    Σ_{j≥1} d_j·g_{k−j}, after checking that num + coef·h vanishes below
    z^v.
    """
    data = _require_builtin(model, order)
    num, den, coef, s = data["num"], data["den"], data["coef"], 4 * data["a"]
    v = next(j for j, c in enumerate(den) if c)
    d = den[v:]
    h = _taylor_sqrt(_radicand(data), order + v)
    top = [
        Fraction((num[n] if n < len(num) else 0) * s**n + coef * x, s**n)
        for n, x in enumerate(h)
    ]
    if any(top[:v]):
        raise IntegrityError("num + coef·h does not vanish to den's valuation")
    g: List[Fraction] = []
    for k in range(order + 1):
        acc = top[k + v] - sum(d[j] * g[k - j] for j in range(1, min(k, len(d) - 1) + 1))
        g.append(acc / d[0])
    return RationalSeries(tuple(g))


def solve_nu_gf(model: TreeModel, order: int) -> RationalSeries:
    """g_ν to the given order via the runtime-verified algebraic curve.

    With the x-stripped curve F̃ = p2·y² + p1·y + p0 and g_0 = c0,
    [x^n]F̃(x, g) = 0 is linear in g_n, with the coefficient
    2·p2(0)·c0 + p1(0) = ∂F̃/∂y(0, c0), which :func:`_verified_curve`
    checks is nonzero: the formal implicit function theorem fixes the
    branch one coefficient at a time, on Fractions.
    """
    _require_builtin(model, order)
    curve, c0 = _verified_curve(model.name)
    degree = max(i for i, _ in curve)
    p0, p1, p2 = ([curve.get((i, j), 0) for i in range(degree + 1)] for j in range(3))
    slope = 2 * p2[0] * c0 + p1[0]
    g, square = [c0], [c0 * c0]  # square[m] = [x^m] g²
    for n in range(1, order + 1):
        cross = sum(g[j] * g[n - j] for j in range(1, n))  # [x^n] g² less 2·c0·g_n
        known = p0[n] if n <= degree else 0
        for i in range(1, min(n, degree) + 1):
            known += p2[i] * square[n - i] + p1[i] * g[n - i]
        g.append(-(known + p2[0] * cross) / slope)
        square.append(cross + 2 * c0 * g[n])
    return RationalSeries(tuple(g))


def _power(b: Sequence[int], alpha, w: int, start: int) -> List[int]:
    """B_0..B_w of B = b^α for an integer series b, b_0 ≠ 0, and B_0 = start.

    J. C. P. Miller's recurrence, the z^(k−1) coefficient of b·B′ = α·b′·B:
    with α = n/d and b_j = 0 past b's end,

        d·k·b_0·B_k = Σ_{j=1..k} ((n + d)·j − d·k)·b_j·B_{k−j}.

    ``start`` picks the branch, one with start^d = b_0^n.  A division that
    leaves a remainder raises IntegrityError.
    """
    n, d = alpha.numerator, alpha.denominator
    steps = [(j, x) for j, x in enumerate(b[1 : w + 1], 1) if x]
    out = [start]
    for k in range(1, w + 1):
        acc = 0
        for j, x in steps:
            if j > k:
                break
            acc += ((n + d) * j - d * k) * x * out[k - j]
        step, rem = divmod(acc, d * k * b[0])
        if rem:
            raise IntegrityError("Miller's power recurrence left a remainder")
        out.append(step)
    return out


def _quotient_series(data: dict, h: Sequence[int], order: int) -> List[int]:
    """G_0..G_order, G_k = g_k·(4a)^(k+v)·d_0^(k+1), of g = (num + coef·h)/den.

    With den = z^v·d and N_n = num_n·(4a)^n + coef·H_n, the division
    recurrence d_0·g_k = (num + coef·h)_{k+v} − Σ_{j≥1} d_j·g_{k−j} becomes
    G_k = d_0^k·N_{k+v} − Σ_{j≥1} d_j·(4a)^j·d_0^(j−1)·G_{k−j}: no division.
    """
    s, num, den, coef = 4 * data["a"], data["num"], data["den"], data["coef"]
    v = next(j for j, c in enumerate(den) if c)
    d = den[v:]
    steps = [d[j] * s**j * d[0] ** (j - 1) for j in range(1, len(d))]
    g: List[int] = []
    lead = 1  # d_0^k
    for k in range(order + 1):
        n = k + v
        acc = lead * ((num[n] * s**n if n < len(num) else 0) + coef * h[n])
        for j, step in enumerate(steps[:k], 1):
            acc -= step * g[k - j]
        g.append(acc)
        lead *= d[0]
    return g


def _certify(data: dict, r: Sequence[int], h: Sequence[int], g: Sequence[int], c0) -> None:
    """Exact O(order) certificate that g lies on the model's curve.

    Runs on the integers H_n = h_n·(4a)^n of :func:`_power` and
    G_k = g_k·(4a)^(k+v)·d_0^(k+1) of :func:`_quotient_series`, each
    identity multiplied through by its own powers of 4a and d_0.  Checks
    h_0² = a; that 2R·h′ − R′·h vanishes coefficient by coefficient to the
    working order, which with h_0² = R(0) gives h² = R there
    ((h²/R)′ = 0); that den·g = num + coef·h to the working order; and
    that g_0 = c0.  Then (den·g − num)² = coef²·R, which is F(z, g) = 0,
    and g is the branch of the verified curve with constant term c0.
    """
    s = 4 * r[0]
    if h[0] ** 2 != r[0]:
        raise IntegrityError("radical constant term does not square to a")
    rs = [r[i] * s**i for i in range(5)]
    for n in range(len(h) - 1):  # z^n of 2R·h′ = R′·h, times (4a)^(n+1)
        terms = [(i, rs[i] * h[n + 1 - i]) for i in range(min(4, n + 1) + 1)]
        if sum(2 * (n + 1 - i) * x for i, x in terms) != sum(i * x for i, x in terms):
            raise IntegrityError(f"radical ODE residual is nonzero at z^{n}")
    num, den, coef = data["num"], data["den"], data["coef"]
    v = next(j for j, c in enumerate(den) if c)
    d = den[v:]
    ds = [d[m] * (s * d[0]) ** m for m in range(len(d))]
    lead = 1  # d_0^(n−v+1) once n >= v
    for n in range(len(h)):  # z^n of den·g = num + coef·h, times (4a)^n·d_0^(n−v+1)
        k = n - v
        lead *= d[0] if k >= 0 else 1
        lhs = sum(ds[m] * g[k - m] for m in range(min(k + 1, len(d))))
        if lhs != lead * ((num[n] * s**n if n < len(num) else 0) + coef * h[n]):
            raise IntegrityError(f"den·g differs from num + coef·h at z^{n}")
    if g[0] * c0.denominator != c0.numerator * s**v * d[0]:
        g0 = Fraction(g[0], s**v * d[0])
        raise IntegrityError(f"series constant term {g0} is not the branch {c0}")


def nu_table(model: TreeModel, order: int) -> Tuple[Fraction, ...]:
    """ν(0..order) as exact rationals (coefficients of g_ν).

    Production route, on integers: h = √((a−z)(1−z)³) by :func:`_power`
    at α = ½, then g = (num + coef·h)/den by the degree-≤2 division
    recurrence after stripping den's valuation; O(order) operations in
    all.  The curve is verified by :func:`_verified_curve` and g is
    certified on it by :func:`_certify` before one Fraction is built per
    coefficient.
    """
    data = _require_builtin(model, order)
    _, c0 = _verified_curve(model.name)
    r, den, s = _radicand(data), data["den"], 4 * data["a"]
    v = next(j for j, c in enumerate(den) if c)
    b = [x * s**j for j, x in enumerate(r)]  # R(4a·z): H_n = h_n·(4a)^n, ints
    h = _power(b, Fraction(1, 2), order + v, math.isqrt(r[0]))
    g = _quotient_series(data, h, order)
    _certify(data, r, h, g, c0)
    out, scale = [], s**v * den[v]
    for x in g:
        out.append(Fraction(x, scale))
        scale *= s * den[v]
    return tuple(out)


# -- convolution tables ------------------------------------------------------


def f_table(nu: Sequence, p_max: int, q_max: int) -> List[List]:
    """f_p(q) for p <= p_max, q <= q_max: p-fold convolutions of ν.

    Row p is row p − 1 times ν by :func:`_convolve` on one-column
    ``[q][0]`` tables.  Exact when ``nu`` holds Fractions; works
    identically on floats.  ``nu`` must reach index q_max.
    """
    if p_max < 0 or q_max < 0:
        raise DomainError("table bounds must be >= 0")
    if len(nu) <= q_max:
        raise DomainError(
            f"nu table reaches index {len(nu) - 1} < q_max = {q_max}"
        )
    zero = nu[0] * 0
    base = [[x] for x in nu[: q_max + 1]]
    power = [[zero + 1]] + [[zero]] * q_max
    rows = [[x for x, in power]]
    for _ in range(p_max):
        power = _convolve(power, base, q_max, 0)
        rows.append([x for x, in power])
    return rows


# -- joint leaf/edge tables --------------------------------------------------


def _integer_scale(terms) -> tuple:
    """(c, [c^j·x for each (j, x) in terms]), every c^j·x an integer.

    c takes the lcm with x's denominator whenever c^j is not yet a
    multiple of it; raises IntegrityError if some c^j·x is still not an
    integer (a non-integral x at j = 0).
    """
    terms = list(terms)
    c = 1
    for j, x in terms:
        if pow(c, j, x.denominator):
            c = math.lcm(c, x.denominator)
    scaled = [x * c**j for j, x in terms]
    for (j, x), n in zip(terms, scaled):
        if n.denominator != 1:
            raise IntegrityError(f"rescaling {x} by {c}^{j} is not integral")
    return c, [n.numerator for n in scaled]


def _fold(head: list, tail: list, budget: int) -> List[int]:
    """Σ_b head[b] ⊛ tail[budget − b], for lists by budget of integer lists by q."""
    pairs = [(x, tail[budget - b]) for b, x in enumerate(head[: budget + 1])]
    pairs = [(x, y) for x, y in pairs if x and y]
    out = [0] * max((len(x) + len(y) - 1 for x, y in pairs), default=0)
    for x, y in pairs:
        for q1, n1 in enumerate(x):
            if n1:
                for q2, n2 in enumerate(y, q1):
                    out[q2] += n1 * n2
    return out


def _mix(terms) -> List[int]:
    """Σ n·x over the (n, x) pairs of an int and an integer list by q."""
    out: List[int] = []
    for n, x in terms:
        out.extend([0] * (len(x) - len(out)))
        for q, m in enumerate(x):
            out[q] += n * m
    return out


def _excursion_joint_gf(model: TreeModel, l_max: int) -> Tuple[List[List[int]], int, int]:
    """Joint law of (label-0 leaves, edges) of one positive excursion.

    Returns ``(n, c, c_w)``: excursions with l edges and q label-0 leaves
    have Π⁺-mass n[l][q]/(c^(2l+1−q)·c_w^l).  Dynamic programming over
    subtrees rooted at labels j >= 1 with labels >= 0 and label-0 vertices
    leaves, bottom-up by edge budget b (every child consumes one edge, so
    only j + b <= l_max + 1 is reached).  A vertex with d children
    contributes its arity's factor times the product of its children's
    laws, built one child at a time from the tail of its increment vector.
    With iid increments every child of a label-j vertex has one law
    (``child``), so the products for all d are the suffixes of one vector
    of iid children.

    On integers only: every vertex factor ξ(d) (times η(vec) without
    per-child weights) is an integer over c^(d+1), every per-child weight
    one over c_w, and l edges and q label-0 leaves mean l + 1 − q factors.
    """
    off, disp = model.offspring, model.displacement
    per_child = disp.per_child_support()
    if per_child is None:
        factors = [
            (d, vec, off.prob(d) * eta)
            for d in off.arities_up_to(l_max)
            for vec, eta in disp.vectors(d)
        ]
        c_w, steps = 1, ()
    else:  # None stands for one iid child
        factors = [(d, (None,) * d, off.prob(d)) for d in off.arities_up_to(l_max)]
        c_w = math.lcm(*(w.denominator for _, w in per_child))
        steps = [(inc, (w * c_w).numerator) for inc, w in per_child]
    c, weights = _integer_scale((d + 1, x) for d, _, x in factors)
    factors = [(d, vec, n) for (d, vec, _), n in zip(factors, weights)]
    suffixes = sorted({vec[i:] for _, vec, _ in factors for i in range(len(vec))}, key=len)

    top = l_max + 1
    unit = [[1]] + [[]] * l_max
    # sub[j][b][q]: subtrees at label j with b edges and q label-0 leaves
    sub = [[[0, 1]] + [[]] * top] + [[] for _ in range(top + 1)]
    child: List[list] = [[] for _ in range(top + 1)]
    prods = [None] + [  # products by budget; one child is an alias, not a copy
        {s: [] if len(s) > 1 else child[j] if s[0] is None else sub[j + s[0]] for s in suffixes}
        | {(): unit}
        for j in range(1, top + 1)
    ]
    for b in range(top):
        for j in range(1, top - b + 1):
            sub[j].append(_mix((n, prods[j][vec][b - d]) for d, vec, n in factors if d <= b))
        for j in range(1, top - b):
            child[j].append(_mix((m, sub[j + inc][b]) for inc, m in steps))
            for s in suffixes:
                if len(s) > 1 and b <= top - j - len(s):
                    head = child[j] if s[0] is None else sub[j + s[0]]
                    prods[j][s].append(_fold(head, prods[j][s[1:]], b))
    return sub[1], c, c_w


def _convolve(a: list, b: list, q_max: int, l_max: int) -> list:
    """The product of two tables ``[q][l]``, truncated at (q_max, l_max); its
    cells start at the inputs' own zero ``a[0][0] * 0``, so keep their type."""
    b_cells = [[(l, n) for l, n in enumerate(row) if n] for row in b[: q_max + 1]]
    zero = a[0][0] * 0
    out = [[zero] * (l_max + 1) for _ in range(q_max + 1)]
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

    The single-excursion law comes from :func:`_excursion_joint_gf` as
    f̃₁(q, l) = n[l][q]/(c^(2l+1−q)·c_w^l), so the p-fold powers of n,
    convolved on ints, hold f̃_p(q, l) over c^(2l+p−q)·c_w^l.  Every
    nonzero cell has q <= l, since each label-0 leaf is a non-root vertex
    (checked); the incomplete-binary table is also certified by
    :func:`_certify_fixed_point`.
    """
    if p_max < 0 or q_max < 0 or l_max < 0:
        raise DomainError("table bounds must be >= 0")
    if (q_max + 1) * (l_max + 1) * (p_max + 1) > 4_000_000:
        raise ResourceLimitError("joint table exceeds the memory budget")
    n, c, c_w = _excursion_joint_gf(model, l_max)
    base = [[0] * (l_max + 1) for _ in range(max(q_max, l_max) + 1)]
    for l, row in enumerate(n):
        for q, x in enumerate(row):
            if x and q > l:
                raise IntegrityError(f"single-excursion cell (q={q}, l={l}) has q > l")
            base[q][l] = x
    if model.key == builtin_model("incomplete-binary").key:
        _certify_fixed_point(base[: l_max + 1], c)

    zero = Fraction(0)
    c_pow = [c**k for k in range(2 * l_max + p_max + 1)]
    c_w_pow = [c_w**l for l in range(l_max + 1)]
    power = [[1] + [0] * l_max] + [[0] * (l_max + 1) for _ in range(q_max)]
    tables = []
    for p in range(p_max + 1):
        if p:
            power = _convolve(power, base, q_max, l_max)
        tables.append([[Fraction(x, c_pow[2 * l + p - q] * c_w_pow[l]) if x else zero
                        for l, x in enumerate(row)] for q, row in enumerate(power)])
    return tables


def _certify_fixed_point(n: List[List[int]], c: int) -> None:
    """Check B = T(B), T(B) = ¼(1 + zu)(1 + u·B(B(z, u), u)), once.

    B = Σ n[q][l]·c^(q−2l−1) z^q u^l is the incomplete-binary single-
    excursion table on q, l <= L.  Tables that agree mod u^k have B(B, u)
    that agree mod u^k, and T multiplies their difference by u, so T has
    one fixed point mod u^(L+1): the one that iterating T from 0 reaches
    (:func:`bivariate_fixed_point`), which a passing table equals.  Every
    q <= l, so the terms b_i(u)·B^i of B(B, u) with i > L vanish there.

    On integers, with y = c·z, x = u/c², Ñ = c·B = Σ n[q][l] y^q x^l and
    row polynomials n_i(x): B(B, u) = G/c with G = Σ_i n_i·Ñ^i, by the
    Horner scheme G_L = n_L, G_k = n_k + Ñ·G_(k+1), and B = T(B) reads
    4Ñ = c·(1 + c·xy)(1 + c·x·G).
    """
    L = len(n) - 1
    g = [list(n[L])] + [[0] * (L + 1) for _ in range(L)]
    for k in range(L - 1, -1, -1):
        g = _convolve(n, g, L, L)
        g[0] = [x + y for x, y in zip(g[0], n[k])]
    e = [[0] + [c * x for x in row[:L]] for row in g]  # 1 + c·x·G
    e[0][0] += 1
    for q in range(L + 1):
        for l in range(L + 1):
            rhs = c * (e[q][l] + (c * e[q - 1][l - 1] if q and l else 0))
            if rhs != 4 * n[q][l]:
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
