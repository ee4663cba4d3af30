"""Tree models: offspring laws, displacement families, and exact weights.

A :class:`TreeModel` pairs an offspring distribution ξ (critical or
subcritical) with a per-arity displacement family η: for every arity d,
η^(d) is a probability measure on {-1,0,1}^d giving the label increments of
the d children in plane order.  The weight of a labelled plane tree is

    Π(t) = ∏_{v ∈ t} ξ(arity(v)) · η^(arity(v))(increments(v)),

with the convention η^(0)(()) = 1 for leaves.  The weight of a label
excursion drops the factors of its label-0 leaves.

All probabilities are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, DomainError
from .tree import LabelledPlaneTree

BUILTIN_IDS = ("geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary")

_HALF = Fraction(1, 2)


def parse_rational(value) -> Fraction:
    """Parse an exact rational from int, or a "num/den" / "int" string."""
    if isinstance(value, bool):
        raise ConfigurationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"not a rational: {value!r}") from exc
    raise ConfigurationError(
        f"rationals must be integers or 'num/den' strings, got {value!r}"
    )


@dataclass(frozen=True)
class OffspringDistribution:
    """Offspring law ξ on {0, 1, 2, ...}.

    ``kind`` is one of:

    - ``finite-table``: ``table[k]`` = ξ(k), exact, finite support;
    - ``geometric-half``: ξ(k) = 2^(-k-1).
    """

    kind: str
    table: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.kind == "finite-table":
            if not self.table:
                raise ConfigurationError("finite-table offspring needs a table")
            if any(x < 0 for x in self.table):
                raise ConfigurationError("offspring probabilities must be >= 0")
            if sum(self.table) != 1:
                raise ConfigurationError("offspring probabilities must sum to 1")
            if sum(k * x for k, x in enumerate(self.table)) > 1:
                raise ConfigurationError(
                    "offspring mean exceeds 1 (supercritical models not supported)"
                )
        elif self.kind != "geometric-half":
            raise ConfigurationError(f"unknown offspring kind {self.kind!r}")

    def prob(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if self.kind == "finite-table":
            return self.table[k] if k < len(self.table) else Fraction(0)
        return _HALF ** (k + 1)

    @property
    def max_arity(self) -> Optional[int]:
        """Largest arity with positive probability, or None if unbounded."""
        if self.kind == "finite-table":
            return max(k for k, x in enumerate(self.table) if x > 0)
        return None

    def arities_up_to(self, budget: int) -> Iterator[int]:
        """Arities with positive probability, bounded by ``budget``."""
        hi = budget if self.max_arity is None else min(budget, self.max_arity)
        for k in range(hi + 1):
            if self.prob(k) > 0:
                yield k


@dataclass(frozen=True)
class DisplacementFamily:
    """Per-arity displacement family η.

    ``kind`` is one of:

    - ``iid-uniform-pm1``: each child's increment uniform on {-1, 1},
      independent;
    - ``iid-uniform-pm01``: each child's increment uniform on {-1, 0, 1},
      independent;
    - ``per-arity-table``: explicit finite tables
      ``tables[d] = ((vector, prob), ...)``.
    """

    kind: str
    tables: Mapping[int, Tuple[Tuple[Tuple[int, ...], Fraction], ...]] = None

    def __post_init__(self):
        if self.kind in ("iid-uniform-pm1", "iid-uniform-pm01"):
            if self.tables is not None:
                raise ConfigurationError(f"{self.kind} displacement takes no tables")
            return
        if self.kind != "per-arity-table":
            raise ConfigurationError(f"unknown displacement kind {self.kind!r}")
        if not self.tables:
            raise ConfigurationError("per-arity-table displacement needs tables")
        frozen = {}
        for d, entries in self.tables.items():
            if d < 1:
                raise ConfigurationError("displacement tables start at arity 1")
            entries = tuple((tuple(v), Fraction(w)) for v, w in entries)
            total = Fraction(0)
            seen = set()
            for v, w in entries:
                if len(v) != d or any(e not in (-1, 0, 1) for e in v):
                    raise ConfigurationError(
                        f"bad displacement vector {v!r} for arity {d}"
                    )
                if v in seen:
                    raise ConfigurationError(f"duplicate displacement vector {v!r}")
                if w < 0:
                    raise ConfigurationError("displacement weights must be >= 0")
                seen.add(v)
                total += w
            if total != 1:
                raise ConfigurationError(
                    f"displacement weights for arity {d} must sum to 1"
                )
            frozen[d] = entries
        object.__setattr__(self, "tables", frozen)

    def prob(self, d: int, v: Sequence[int]) -> Fraction:
        v = tuple(v)
        if len(v) != d:
            raise DomainError(f"vector {v!r} does not have length {d}")
        if any(e not in (-1, 0, 1) for e in v):
            raise DomainError(f"vector entries must lie in {{-1, 0, 1}}: {v!r}")
        if d == 0:
            return Fraction(1)
        if self.kind == "iid-uniform-pm1":
            return Fraction(1, 2**d) if 0 not in v else Fraction(0)
        if self.kind == "iid-uniform-pm01":
            return Fraction(1, 3**d)
        for u, w in self.tables.get(d, ()):
            if u == v:
                return w
        return Fraction(0)

    def per_child_support(self) -> Optional[Tuple[Tuple[int, Fraction], ...]]:
        """(increment, prob) pairs per child for iid kinds, else None."""
        if self.kind == "iid-uniform-pm1":
            return ((-1, _HALF), (1, _HALF))
        if self.kind == "iid-uniform-pm01":
            third = Fraction(1, 3)
            return ((-1, third), (0, third), (1, third))
        return None

    def vectors(self, d: int) -> Iterator[Tuple[Tuple[int, ...], Fraction]]:
        """All increment vectors with positive probability for arity d."""
        if d == 0:
            yield (), Fraction(1)
            return
        per_child = self.per_child_support()
        if per_child is not None:
            for combo in itertools.product(per_child, repeat=d):
                yield tuple(c[0] for c in combo), math.prod(c[1] for c in combo)
        else:
            for v, w in self.tables.get(d, ()):
                if w > 0:
                    yield v, w


@dataclass(frozen=True)
class TreeModel:
    """A labelled Galton-Watson tree model (ξ, η)."""

    name: str
    offspring: OffspringDistribution
    displacement: DisplacementFamily

    def __post_init__(self):
        disp = self.displacement
        # Every arity with positive offspring probability must have a
        # displacement law: iid kinds cover all arities, and each table of
        # a DisplacementFamily is checked there to sum to 1.
        if disp.kind == "per-arity-table":
            hi = self.offspring.max_arity
            if hi is None:
                raise ConfigurationError(
                    "per-arity-table displacement requires finite-table offspring"
                )
            for d in range(1, hi + 1):
                if self.offspring.prob(d) > 0 and d not in disp.tables:
                    raise ConfigurationError(f"no displacement law for supported arity {d}")

    @cached_property
    def key(self) -> tuple:
        """Hashable identity used for caching derived tables, built once.
        Probabilities enter as int (numerator, denominator) pairs, which
        hash far faster than ``Fraction``s and are equal exactly when they are."""
        off, disp = self.offspring, self.displacement
        tables = sorted((disp.tables or {}).items())
        return (
            (off.kind, tuple(x.as_integer_ratio() for x in off.table)),
            (disp.kind, tuple((d, tuple((v, w.as_integer_ratio()) for v, w in entries))
                              for d, entries in tables)),
        )


def builtin_model(model_id: str) -> TreeModel:
    """The four built-in critical models."""
    if model_id == "geom-pm1":
        return TreeModel(
            name=model_id,
            offspring=OffspringDistribution("geometric-half"),
            displacement=DisplacementFamily("iid-uniform-pm1"),
        )
    if model_id == "geom-pm01":
        return TreeModel(
            name=model_id,
            offspring=OffspringDistribution("geometric-half"),
            displacement=DisplacementFamily("iid-uniform-pm01"),
        )
    if model_id == "incomplete-binary":
        quarter = Fraction(1, 4)
        return TreeModel(
            name=model_id,
            offspring=OffspringDistribution(
                "finite-table", (quarter, _HALF, quarter)
            ),
            displacement=DisplacementFamily(
                "per-arity-table",
                {
                    1: (((-1,), _HALF), ((1,), _HALF)),
                    2: (((-1, 1), Fraction(1)),),
                },
            ),
        )
    if model_id == "complete-binary":
        return TreeModel(
            name=model_id,
            offspring=OffspringDistribution(
                "finite-table", (_HALF, Fraction(0), _HALF)
            ),
            displacement=DisplacementFamily(
                "per-arity-table", {2: (((-1, 1), Fraction(1)),)}
            ),
        )
    raise ConfigurationError(
        f"unknown builtin model {model_id!r}; expected one of {BUILTIN_IDS}"
    )


def resolve_model(spec: str) -> TreeModel:
    """Resolve ``builtin:<id>`` or ``file:<path>`` model references."""
    if spec.startswith("builtin:"):
        return builtin_model(spec[len("builtin:"):])
    if spec.startswith("file:"):
        return load_model(spec[len("file:"):])
    if spec in BUILTIN_IDS:
        return builtin_model(spec)
    raise ConfigurationError(
        f"model reference {spec!r} must be 'builtin:<id>' or 'file:<path>'"
    )


# -- weights ---------------------------------------------------------------


def _vertex_factors(
    model: TreeModel, t: LabelledPlaneTree, skip: Optional[int] = None
) -> Fraction:
    """Product of ξ·η factors over the vertices of t not labelled ``skip``."""
    w = Fraction(1)
    for v in t.vertices():
        if t.labels[v] == skip:
            continue
        d = t.arity(v)
        w *= model.offspring.prob(d)
        if w == 0:
            return w
        if d:
            w *= model.displacement.prob(d, t.increments(v))
            if w == 0:
                return w
    return w


def tree_weight(model: TreeModel, t: LabelledPlaneTree) -> Fraction:
    """Exact weight Π(t): product of ξ·η factors over every vertex."""
    return _vertex_factors(model, t)


def is_excursion(t: LabelledPlaneTree) -> int:
    """Validate excursion invariants; return the sign (+1/-1).

    An excursion has root labelled +1 or -1, all labels of one (weak) sign,
    and every label-0 vertex a leaf.
    """
    sign = t.root_label
    if sign not in (1, -1):
        raise DomainError("excursion root must be labelled +1 or -1")
    labels = t.labels
    if (min(labels) if sign == 1 else -max(labels)) < 0:
        raise DomainError("excursion labels must all have the root's sign")
    if any(labels[p] == 0 for p in t.parents[1:]):
        raise DomainError("label-0 vertices of an excursion must be leaves")
    return sign


def excursion_weight(model: TreeModel, t: LabelledPlaneTree) -> Fraction:
    """Exact excursion weight: Π(t) omitting the label-0 leaf factors.

    ``t`` is an excursion as a plain tree (see :func:`is_excursion`, which
    checks it here and raises DomainError when it is not one).
    """
    is_excursion(t)
    return _vertex_factors(model, t, skip=0)


# -- config files -----------------------------------------------------------


def _int(value) -> int:
    """``value`` if it is a JSON integer (``true`` and ``false`` are not)."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


def _json(value, kind: str, what: str):
    """``value`` if it is a JSON ``kind`` ("object" or "array"), else a
    ConfigurationError naming ``what``."""
    if not isinstance(value, {"object": Mapping, "array": list}[kind]):
        raise ConfigurationError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def parse_model_config(config: Mapping, name: str = "custom") -> TreeModel:
    """Build a TreeModel from a parsed JSON config (finite tables only)."""
    _json(config, "object", "model config")
    try:
        off_cfg = _json(config["offspring"], "object", "offspring")
        disp_cfg = _json(config["displacement"], "object", "displacement")
    except KeyError as exc:
        raise ConfigurationError(f"model config missing field {exc}") from exc

    off_kind = off_cfg.get("kind")
    if off_kind == "finite-table":
        table = _json(off_cfg.get("table", []), "array", "offspring table")
        offspring = OffspringDistribution(
            "finite-table", tuple(parse_rational(x) for x in table)
        )
    elif off_kind == "geometric-half":
        raise ConfigurationError(
            "geometric offspring laws are builtin-only; custom models use "
            "finite tables"
        )
    else:
        raise ConfigurationError(f"unknown offspring kind {off_kind!r}")

    disp_kind = disp_cfg.get("kind")
    if disp_kind in ("iid-uniform-pm1", "iid-uniform-pm01"):
        displacement = DisplacementFamily(disp_kind, disp_cfg.get("tables"))
    elif disp_kind == "per-arity-table":
        tables = {}
        given = _json(disp_cfg.get("tables", {}), "object", "displacement tables")
        for key, entries in given.items():
            try:  # each entry a [vector, weight] pair, each vector a list of ints
                tables[int(key)] = tuple(
                    (tuple(map(_int, v)), parse_rational(w)) for v, w in entries
                )
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed displacement table {key!r}: {exc}"
                ) from exc
        if len(tables) != len(given):  # keys such as "1" and "01"
            raise ConfigurationError("displacement tables name an arity twice")
        displacement = DisplacementFamily("per-arity-table", tables)
    else:
        raise ConfigurationError(f"unknown displacement kind {disp_kind!r}")

    return TreeModel(
        name=str(config.get("name", name)),
        offspring=offspring,
        displacement=displacement,
    )


def load_model(path: str) -> TreeModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read model config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path!r}: {exc}") from exc
    return parse_model_config(config, name=path)
