"""Seedable random generation of labelled trees, excursions and maps.

Randomness
----------
All sampling is driven by :class:`random.Random` (Mersenne Twister).  A
:class:`SamplerConfig` carries a 64-bit ``seed`` and a ``stream`` index;
the generator is seeded with ``(seed ^ (stream * STREAM_MIX)) mod 2**64``
where ``STREAM_MIX`` is a fixed odd 64-bit constant, so distinct streams
of the same seed are decorrelated and a (seed, stream) pair fully
determines every sample.  Parallel drivers assign one stream per worker.

Draw order is part of the contract: a vertex's offspring count is drawn
first, then its displacement vector, and children are expanded
depth-first in plane (left-to-right) order.  Trees are generated
iteratively; the only growth limits are the explicit caps in the config,
reported via :class:`ResourceLimitError` / the rejection counters.

Per vertex, the random calls are, first, for ``finite-table`` offspring
one ``random()`` u, giving the first arity k with u below the float sum
ξ(0) + ... + ξ(k) (set to 1.0 at the last positive arity); for
``geometric-half``, ``getrandbits(1)`` until it returns 0, the arity
being the number of 1s.  Then, for d >= 1 children, ``iid-uniform-pm1``
makes d calls ``getrandbits(1)`` (bit b is the increment 1 - 2b);
``iid-uniform-pm01`` d calls ``randrange(3)`` (r is r - 1); and
``per-arity-table`` one ``random()`` against the cumulative float weights
of the arity's positive-weight vectors in table order, the last set to 1.0.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

from .errors import ConfigurationError, DomainError, ResourceLimitError
from .excursion import Excursion
from .model import TreeModel, builtin_model
from .tree import LabelledPlaneTree

STREAM_MIX = 0x9E3779B97F4A7C15  # odd 64-bit mixing constant (golden ratio)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility and resource limits for all samplers.

    ``seed`` is reduced modulo 2**64.  ``vertex_cap`` bounds the number
    of vertices of any single generated tree; ``rejection_cap`` bounds
    the number of attempts of any rejection loop.
    """

    seed: int = 0
    vertex_cap: int = 10**7
    rejection_cap: int = 10**6
    stream: int = 0

    def __post_init__(self):
        if self.vertex_cap < 1:
            raise ConfigurationError("vertex_cap must be >= 1")
        if self.rejection_cap < 1:
            raise ConfigurationError("rejection_cap must be >= 1")


def make_rng(config: SamplerConfig) -> random.Random:
    """The generator determined by (seed, stream); see module docstring."""
    mixed = (config.seed ^ ((config.stream * STREAM_MIX) & _MASK64)) & _MASK64
    return random.Random(mixed)


def _cumulative(pairs) -> Tuple[tuple, List[float]]:
    """The outcomes of (outcome, weight) ``pairs``, and the running float
    sums of their weights with the last set to 1.0, so every u < 1 lands."""
    outcomes, weights = zip(*pairs)
    cum = list(accumulate(float(w) for w in weights))
    cum[-1] = 1.0
    return outcomes, cum


def _vertex_draw(model: TreeModel, rng: random.Random) -> Callable[[], Tuple[int, ...]]:
    """``model``'s vertex draw on ``rng``, compiled once: a closure returning
    one vertex's child increments (``()`` for a leaf) by the random calls of
    the module docstring.  ``TreeModel`` gives every drawable arity a table.
    """
    off, disp = model.offspring, model.displacement
    random_, bits, randrange = rng.random, rng.getrandbits, rng.randrange
    if off.kind == "finite-table":
        arities = [d for d, x in enumerate(off.table) if x]  # the positive ones
        _, arity_cum = _cumulative(enumerate(off.table[: arities[-1] + 1]))

        def arity() -> int:
            return bisect_right(arity_cum, random_())

    else:  # geometric-half, P(k) = 2^{-k-1}: count leading 1-bits

        def arity() -> int:
            k = 0
            while bits(1):
                k += 1
            return k

    if disp.kind == "iid-uniform-pm1":
        return lambda: tuple([1 - 2 * bits(1) for _ in range(arity())])
    if disp.kind == "iid-uniform-pm01":
        return lambda: tuple([randrange(3) - 1 for _ in range(arity())])
    # ξ is finite here (TreeModel); arity -> (positive-weight vectors, cumulative)
    tables = {d: _cumulative(disp.vectors(d)) for d in arities if d}

    def draw() -> Tuple[int, ...]:
        d = arity()
        if not d:
            return ()
        vectors, cum = tables[d]
        return vectors[bisect_right(cum, random_())]

    return draw


class Sampler:
    """Stateful sampler bound to one model and one RNG stream.

    Successive calls consume the same stream, so a sequence of samples
    is reproducible from the config alone.
    """

    def __init__(self, model: TreeModel, config: Optional[SamplerConfig] = None):
        self.model = model
        self.config = config or SamplerConfig()
        self.rng = make_rng(self.config)
        self._vertex_draw = _vertex_draw(model, self.rng)

    # -- tree generation ---------------------------------------------------

    def _grow(
        self,
        root_label: int,
        vertex_cap: int,
        freeze_zero: bool = False,
    ) -> Optional[LabelledPlaneTree]:
        """One unconditioned tree, or None if ``vertex_cap`` is exceeded.

        With ``freeze_zero`` vertices labelled 0 are kept as leaves and
        consume no randomness (excursion law).
        """
        labels: List[int] = []
        parents: List[Optional[int]] = []
        draw = self._vertex_draw
        # (label, parent) of every vertex drawn but not yet expanded; a
        # vertex gets its preorder index when it is popped.
        stack: List[Tuple[int, Optional[int]]] = [(root_label, None)]
        drawn = 1
        while stack:
            label, parent = stack.pop()
            v = len(labels)
            labels.append(label)
            parents.append(parent)
            if freeze_zero and label == 0:
                continue
            incs = draw()
            if not incs:
                continue
            drawn += len(incs)
            if drawn > vertex_cap:
                return None
            stack.extend([(label + inc, v) for inc in reversed(incs)])
        return LabelledPlaneTree.unchecked(labels, parents)

    def _first(self, cap: int, accept, what: str) -> LabelledPlaneTree:
        """The first tree of at most ``cap`` vertices, rooted at 0, that
        ``accept`` takes, within ``rejection_cap`` attempts."""
        for _ in range(self.config.rejection_cap):
            t = self._grow(0, cap)
            if t is not None and accept(t):
                return t
        raise ResourceLimitError(
            f"no tree with {what} in rejection_cap={self.config.rejection_cap} attempts"
        )

    def sample_tree(self) -> LabelledPlaneTree:
        """One tree from the unconditioned model law, rooted at label 0."""
        t = self._grow(0, self.config.vertex_cap)
        if t is None:
            raise ResourceLimitError(
                f"tree exceeded vertex_cap={self.config.vertex_cap}"
            )
        return t

    def sample_excursion(self, sign: int) -> Excursion:
        """One excursion of the given sign (+1 or -1).

        The root is labelled ``sign``; vertices that reach label 0 are
        leaves by definition and are never expanded.
        """
        if sign not in (1, -1):
            raise DomainError(f"excursion sign must be +1 or -1, got {sign}")
        t = self._grow(sign, self.config.vertex_cap, freeze_zero=True)
        if t is None:
            raise ResourceLimitError(
                f"excursion exceeded vertex_cap={self.config.vertex_cap}"
            )
        return Excursion(t)

    def sample_conditioned(self, n_edges: int) -> LabelledPlaneTree:
        """One tree conditioned on having exactly ``n_edges`` edges.

        Rejection from the unconditioned law.  Raises DomainError when
        the model gives the target size zero mass, ResourceLimitError
        when the rejection budget is exhausted.
        """
        if n_edges < 0:
            raise DomainError("n_edges must be >= 0")
        from .oracle import size_mass

        if size_mass(self.model, n_edges) == 0:
            raise DomainError(
                f"model {self.model.name!r} puts zero mass on trees"
                f" with {n_edges} edges"
            )
        cap = min(self.config.vertex_cap, n_edges + 2)
        return self._first(cap, lambda t: t.n_edges == n_edges, f"{n_edges} edges")

    def sample_quadrangulation(self):
        """One pointed rooted quadrangulation from the Boltzmann law.

        A tree from the {-1,0,+1}-increment geometric model conditioned
        on at least one edge, plus one orientation bit, pushed through
        the tree-to-map bijection.  The sampler's model must be the
        geom-pm01 builtin.
        """
        from .maps import tree_to_map

        if self.model.key != builtin_model("geom-pm01").key:
            raise ConfigurationError(
                f"quadrangulations are sampled from geom-pm01, not {self.model.name!r}"
            )
        t = self._first(self.config.vertex_cap, lambda t: t.n_edges >= 1, ">=1 edge")
        return tree_to_map(t, self.rng.getrandbits(1))


# -- fast profile path (incomplete binary model) ---------------------------


def sample_incomplete_binary_profile(rng: random.Random, vertex_cap: int):
    """Per-level vertical edge counts of one incomplete-binary tree.

    Returns ``(x_plus, x_minus, check_plus, check_minus)`` as lists
    indexed by level m >= 1 (index 0 unused), or None if the tree would
    exceed ``vertex_cap`` vertices.  Equivalent to sampling the tree and
    reading its edge profile, but without building the tree: one 2-bit
    draw per vertex encodes (has left -1 child, has right +1 child),
    matching the model's offspring table (1/4, 1/2, 1/4) with symmetric
    single-child displacement.
    """
    xp = [0, 0]
    xm = [0, 0]
    cp = [0, 0]
    cm = [0, 0]
    stack = [0]
    grb = rng.getrandbits
    count = 1
    pop = stack.pop
    push = stack.append
    while stack:
        lab = pop()
        code = grb(2)
        if not code:
            continue
        count += code & 1
        count += code >> 1
        if count > vertex_cap:
            return None
        if code & 1:  # child labelled lab - 1
            c = lab - 1
            if lab >= 1:  # downward edge below level lab
                if lab >= len(xm):
                    xm.extend([0] * (lab + 1 - len(xm)))
                xm[lab] += 1
            else:  # upper label is lab (= -m+1), lower is c
                m = 1 - lab
                if m >= len(cm):
                    cm.extend([0] * (m + 1 - len(cm)))
                cm[m] += 1
            push(c)
        if code >> 1:  # child labelled lab + 1
            c = lab + 1
            if c >= 1:  # upward edge, upper label c
                if c >= len(xp):
                    xp.extend([0] * (c + 1 - len(xp)))
                xp[c] += 1
            else:  # upper label c = -m+1, lower lab = -m
                m = -lab
                if m >= len(cp):
                    cp.extend([0] * (m + 1 - len(cp)))
                cp[m] += 1
            push(c)
    return xp, xm, cp, cm
