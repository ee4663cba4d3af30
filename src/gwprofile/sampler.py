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
These calls are the contract, not how they are taken.  ``Sampler._grow``
takes them inline, in its one loop over the vertices, from tables built
once per ``model.key``.  Each call reads whole 32-bit words (``randrange(3)``
is ``getrandbits(2)`` redrawn while it reads 3), so the iid steps of k <= 4
children are taken by one ``getrandbits(32 * k)``, word i at bit 32i, and
the steps whose words read 3 after it.

:func:`sample_incomplete_binary_profile` has a stream of its own: one
``getrandbits(2)`` per vertex, bit 0 for the -1 child and bit 1 for the +1
child, depth-first with the +1 child's subtree first.  A capped call stops
right after the draw that passes the cap.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import List, Optional, Tuple

from .errors import ConfigurationError, DomainError, ResourceLimitError
from .model import TreeModel, builtin_model
from .tree import LabelledPlaneTree

STREAM_MIX = 0x9E3779B97F4A7C15  # odd 64-bit mixing constant (golden ratio)

_MASK64 = (1 << 64) - 1
_QUAD_MODEL_KEY = builtin_model("geom-pm01").key  # the one model of quadrangulations


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


# The steps of the iid kinds, by the ``width`` bits r a step reads: r >=
# len(steps) is redrawn, as ``randrange(3)`` redraws 3.
_IID = {"iid-uniform-pm1": ((1, -1), 1), "iid-uniform-pm01": ((-1, 0, 1), 2)}
_WORDS = 4  # the most steps one getrandbits call takes
_tables_memo: dict = {}  # model.key -> _draw_tables(model)


@lru_cache(maxsize=None)
def _word_tables(steps: Tuple[int, ...], width: int) -> List[Tuple[int, dict]]:
    """For k = 0 .. ``_WORDS``, the mask of the top ``width`` bits of the k
    words of ``getrandbits(32 * k)``, and a dict from the masked bits to the
    steps the words give, last word first, and the number they do not."""
    out = [(0, {0: ((), 0)})]
    for shift in range(32 - width, 32 * _WORDS, 32):
        mask, table = out[-1]
        table = {
            key | r << shift: ((steps[r],) + kept, n) if r < len(steps) else (kept, n + 1)
            for key, (kept, n) in table.items()
            for r in range(1 << width)
        }
        out.append((mask | ((1 << width) - 1) << shift, table))
    return out


def _draw_tables(model: TreeModel):
    """``model``'s vertex-draw tables, built once per ``model.key`` (``TreeModel``
    gives every drawable arity one): the float sums of ξ (None for
    ``geometric-half``), the step tables, and the iid steps and their width
    (None and 0 for ``per-arity-table``)."""
    key = model.key
    got = _tables_memo.get(key)
    if got is None:
        off, disp = model.offspring, model.displacement
        arity_cum = None
        if off.kind == "finite-table":
            arities = [d for d, x in enumerate(off.table) if x]  # the positive ones
            _, arity_cum = _cumulative(enumerate(off.table[: arities[-1] + 1]))
        steps, width = _IID.get(disp.kind, (None, 0))
        if steps is not None:
            tables = _word_tables(steps, width)
        else:  # arity -> (vectors last child first, cumulative); ξ is finite here
            tables = {d: _cumulative((v[::-1], w) for v, w in disp.vectors(d))
                      for d in arities if d}
        got = _tables_memo[key] = arity_cum, tables, steps, width
    return got


class Sampler:
    """Stateful sampler bound to one model and one RNG stream.

    Successive calls consume the same stream, so a sequence of samples
    is reproducible from the config alone.
    """

    def __init__(self, model: TreeModel, config: Optional[SamplerConfig] = None):
        self.model = model
        self.config = config or SamplerConfig()
        self.rng = make_rng(self.config)
        self._tables = _draw_tables(model)

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
        arity_cum, tables, steps, width = self._tables
        random_, bits = self.rng.random, self.rng.getrandbits
        labels: List[int] = []
        parents: List[Optional[int]] = []
        add_label, add_parent = labels.append, parents.append
        # (label, parent) of every vertex drawn but not yet expanded; a
        # vertex gets its preorder index when it is popped.
        stack: List[Tuple[int, Optional[int]]] = [(root_label, None)]
        push, pop = stack.append, stack.pop
        drawn = 1
        while stack:
            label, parent = pop()
            v = len(labels)
            add_label(label)
            add_parent(parent)
            if freeze_zero and label == 0:
                continue
            # The vertex draw of the module docstring: the arity k, then the
            # increments, last child first.
            if arity_cum is not None:
                k = bisect_right(arity_cum, random_())
            else:  # geometric-half, P(k) = 2^{-k-1}: count leading 1-bits
                k = 0
                while bits(1):
                    k += 1
            if not k:
                continue
            if steps is None:  # one vector from the arity's table
                vectors, cum = tables[k]
                incs = vectors[bisect_right(cum, random_())]
            else:  # iid steps; k > _WORDS takes one call per step
                if k <= _WORDS:
                    mask, table = tables[k]
                    incs, missing = table[bits(32 * k) & mask]
                else:
                    incs, missing = (), k
                while missing:
                    r = bits(width)
                    if r < len(steps):
                        incs, missing = (steps[r],) + incs, missing - 1
            drawn += k
            if drawn > vertex_cap:
                return None
            for inc in incs:
                push((label + inc, v))
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

    def sample_excursion(self, sign: int) -> LabelledPlaneTree:
        """One excursion of the given sign (+1 or -1), as a plain tree.

        The root is labelled ``sign``; vertices that reach label 0 are
        leaves by definition and are never expanded, so every label has
        the root's weak sign.  It is not re-checked here.
        """
        if sign not in (1, -1):
            raise DomainError(f"excursion sign must be +1 or -1, got {sign}")
        t = self._grow(sign, self.config.vertex_cap, freeze_zero=True)
        if t is None:
            raise ResourceLimitError(
                f"excursion exceeded vertex_cap={self.config.vertex_cap}"
            )
        return t

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

        if self.model.key != _QUAD_MODEL_KEY:
            raise ConfigurationError(
                f"quadrangulations are sampled from geom-pm01, not {self.model.name!r}"
            )
        t = self._first(self.config.vertex_cap, lambda t: t.n_edges >= 1, ">=1 edge")
        return tree_to_map(t, self.rng.getrandbits(1))


# -- fast profile path (incomplete binary model) ---------------------------

_BATCH = 1 << 12  # draws between two counts of the profile walk's edges


def _by_upper_label(counts, shift: int) -> Tuple[List[int], List[int]]:
    """Edge counts by the label k = label + ``shift`` of their upper end, as
    lists indexed by k >= 1 and by 1 - k >= 1, each at least [0, 0]."""
    x, check = [0, 0], [0, 0]
    for lab, n in counts.items():
        k = lab + shift
        levels, m = (x, k) if k >= 1 else (check, 1 - k)
        levels.extend([0] * (m + 1 - len(levels)))
        levels[m] = n
    return x, check


def sample_incomplete_binary_profile(rng: random.Random, vertex_cap: int):
    """Per-level vertical edge counts of one incomplete-binary tree.

    Returns ``(x_plus, x_minus, check_plus, check_minus)`` as lists indexed by
    level m >= 1 (index 0 unused), or None if the tree would exceed
    ``vertex_cap`` vertices.  Equivalent to sampling the tree and reading its
    edge profile, but without building the tree: one ``getrandbits(2)`` per
    vertex, depth-first with the +1 child's subtree first, gives the -1 child
    by bit 0 and the +1 child by bit 1, matching the model's offspring table
    (1/4, 1/2, 1/4) with symmetric single-child displacement.  A capped call
    stops right after the draw that passes ``vertex_cap``, so callers may share
    one generator across trees.
    """
    if vertex_cap < 1:
        raise ConfigurationError("vertex_cap must be >= 1")
    # The walk goes on to a vertex's +1 child, else its -1 child; a leaf resumes
    # at the last -1 child that a two-child vertex left behind.  It lists the
    # labels of the vertices with children, and counts their edges per batch.
    minus, plus, both, down, up = [], [], [], Counter(), Counter()
    rec_minus, rec_plus, rec_both = minus.append, plus.append, both.append
    deferred: List[int] = []
    pop, push, grb = deferred.pop, deferred.append, rng.getrandbits
    lab = visited = 0  # the label drawn next; the vertices drawn and walked
    while True:
        drawn = visited + len(deferred) + 1  # a draw adds at most 2 vertices
        room = min((vertex_cap - drawn) // 2, _BATCH)
        if room > 0:
            codes = map(grb, repeat(2, room))
            visited += room
        else:  # near the cap, each draw is checked
            code = grb(2)
            if code and drawn + (code & 1) + (code >> 1) > vertex_cap:
                return None
            codes = (code,)
            visited += 1
        try:
            for code in codes:
                if code == 3:
                    rec_both(lab)
                    push(lab - 1)
                    lab += 1
                elif code == 2:
                    rec_plus(lab)
                    lab += 1
                elif code == 1:
                    rec_minus(lab)
                    lab -= 1
                else:
                    lab = pop()
        except IndexError:  # a leaf with nothing deferred ends the tree
            break
        finally:  # count the batch's edges: memory stays O(_BATCH + height)
            down.update(minus + both)
            up.update(plus + both)
            del minus[:], plus[:], both[:]
    x_plus, check_plus = _by_upper_label(up, 1)
    x_minus, check_minus = _by_upper_label(down, 0)
    return x_plus, x_minus, check_plus, check_minus
