"""Labelled plane trees and their vertical edge profiles.

A labelled plane tree is a rooted tree with an ordered list of children at
every vertex and an integer label at every vertex, such that the labels of
the two endpoints of every edge differ by at most 1.

Trees are stored as two tuples indexed by preorder (depth-first, children
left to right), the contour order of Le Gall, "Random trees and
applications" (2005): vertex 0 is the root, ``labels[v]`` is v's label and
``parents[v]`` is the preorder index of v's parent (``None`` for the root),
so ``parents[v] < v``.  Plane order is implicit: the children of v are the
vertices with parent v, in increasing index.  ``children[v]``, the tuple of
v's children, is built from ``parents`` on first use and cached.  Equality
and hashing use ``(labels, parents)``.

Validation runs where arrays come from outside the package: the public
constructor ``LabelledPlaneTree(labels, parents)`` (and so ``from_nested``)
checks that every label is an ``int`` (not a ``bool``), then every other
invariant in one pass.  The package's own producers
(samplers, :func:`decode`, :func:`truncate`, the excursion decomposition
and its inverse, the map bijection) append vertices in preorder and build
their output with :meth:`LabelledPlaneTree.unchecked`; the tests check
their outputs against the validating constructor.

The text grammar is exact and whitespace-free::

    TREE  := INT '(' CHILD* ')'
    CHILD := INC '(' CHILD* ')'
    INC   := '+' | '-' | '0'

where INT is the root label (optionally signed decimal) and each INC is the
label increment from parent to child.  Example: ``0(+(-()))`` is the path
with labels 0, 1, 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError, TreeParseError

# Nested-tuple shorthand used by builders and tests: a NODE is a tuple of
# children, each child a pair (increment, NODE).
Nested = tuple


class LabelledPlaneTree:
    """Immutable labelled plane tree: preorder ``labels`` and ``parents``."""

    __slots__ = ("labels", "parents", "_children", "_hash")

    def __init__(self, labels: Sequence[int], parents: Sequence[Optional[int]]):
        labels = self.labels = tuple(labels)
        parents = self.parents = tuple(parents)
        self._children = None
        self._hash = None
        n = len(labels)
        if n == 0:
            raise DomainError("a tree must have at least one vertex")
        if len(parents) != n:
            raise DomainError("labels and parents must have equal length")
        if parents[0] is not None:
            raise DomainError("vertex 0 must be the root")
        # Exact type int: a bool or float label would pass the checks below
        # and then be written by encode as text that decode refuses.
        if not {int}.issuperset(map(type, labels)):
            raise DomainError("labels must be ints")
        # Parents are compared by equality on the path below, which a bool
        # passes and a float passes until it indexes labels; None is left
        # to the path check.
        if not {int, type(None)}.issuperset(map(type, parents)):
            raise DomainError("parents must be ints")
        # In preorder, v's parent lies on the path from the root to v - 1;
        # this one check also gives connectivity and parents in range.
        path = [0]
        for v in range(1, n):
            p = parents[v]
            while path and path[-1] != p:
                path.pop()
            if not path:
                raise DomainError(
                    f"vertex {v}: parent {p!r} is not on the path from the root "
                    f"to vertex {v - 1} (vertices must be in preorder)"
                )
            if abs(labels[v] - labels[p]) > 1:
                raise DomainError(
                    f"edge ({p},{v}) has label increment {labels[v] - labels[p]}"
                )
            path.append(v)

    @classmethod
    def unchecked(cls, labels, parents) -> "LabelledPlaneTree":
        """Construct from preorder arrays without validation.

        For the package's own producers, whose outputs are correct by
        construction and are checked against the validating constructor
        in tests; the arrays must satisfy exactly the invariants of
        ``__init__``.
        """
        t = cls.__new__(cls)
        t.labels = tuple(labels)
        t.parents = tuple(parents)
        t._children = None
        t._hash = None
        return t

    @property
    def children(self) -> tuple:
        """``children[v]``: v's children in plane order (built once, on first use)."""
        kids = self._children
        if kids is None:
            lists = [[] for _ in self.parents]
            parents = self.parents
            for v in range(1, len(parents)):
                lists[parents[v]].append(v)
            kids = self._children = tuple(map(tuple, lists))
        return kids

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.labels) - 1

    @property
    def root_label(self) -> int:
        return self.labels[0]

    def arity(self, v: int) -> int:
        return len(self.children[v])

    def increments(self, v: int) -> tuple:
        """Label increments from v to its children, in plane order."""
        lv = self.labels[v]
        return tuple(self.labels[c] - lv for c in self.children[v])

    def vertices(self) -> range:
        return range(len(self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelledPlaneTree):
            return NotImplemented
        return self.labels == other.labels and self.parents == other.parents

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.labels, self.parents))
        return self._hash

    def __repr__(self) -> str:
        return f"LabelledPlaneTree({encode(self)!r})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_nested(cls, root_label: int, nested: Nested) -> "LabelledPlaneTree":
        """Build from the nested-tuple shorthand (see module docstring)."""
        return cls(*_preorder_from_nested(root_label, nested))


def _preorder_from_nested(root_label: int, nested: Nested):
    labels = [root_label]
    parents: list = [None]
    # One iterator over the remaining children of each vertex on the path.
    stack = [(0, iter(nested))]
    while stack:
        v, kids = stack[-1]
        for inc, sub in kids:
            c = len(labels)
            labels.append(labels[v] + inc)
            parents.append(v)
            stack.append((c, iter(sub)))
            break
        else:
            stack.pop()
    return labels, parents


# -- text grammar ---------------------------------------------------------

_INC = {"+": 1, "-": -1, "0": 0}
_OPEN_CHILD = {1: "+(", -1: "-(", 0: "0("}


def encode(t: LabelledPlaneTree) -> str:
    """Serialize a tree in the exact text grammar."""
    labels, parents = t.labels, t.parents
    parts = [str(labels[0]), "("]
    # Vertices whose ')' is still due; preorder storage means a vertex's
    # parent is always on this stack when the vertex is reached.
    stack = [0]
    for v in range(1, len(labels)):
        p = parents[v]
        while stack[-1] != p:
            stack.pop()
            parts.append(")")
        parts.append(_OPEN_CHILD[labels[v] - labels[p]])
        stack.append(v)
    parts.append(")" * len(stack))
    return "".join(parts)


def decode(text: str) -> LabelledPlaneTree:
    """Parse a tree from the exact text grammar.

    Raises :class:`TreeParseError` with the byte offset of the first
    offending character.
    """
    i = 0
    n = len(text)
    # root label: optional sign, then digits
    j = i
    if j < n and text[j] in "+-":
        j += 1
    k = j
    while k < n and text[k] in "0123456789":  # str.isdigit admits '²', '٣'
        k += 1
    if k == j:
        raise TreeParseError("expected integer root label", i)
    try:
        root_label = int(text[i:k])
    except ValueError:  # more digits than int() converts
        raise TreeParseError("root label too long", i) from None
    i = k

    labels = [root_label]
    parents: list = [None]
    if i >= n or text[i] != "(":
        raise TreeParseError("expected '('", i)
    i += 1
    stack = [0]  # vertices whose ')' is still due
    while stack:
        if i >= n:
            raise TreeParseError("unexpected end of input, expected ')' or increment", i)
        ch = text[i]
        if ch == ")":
            stack.pop()
            i += 1
            continue
        inc = _INC.get(ch)
        if inc is None:
            raise TreeParseError(f"unexpected character {ch!r}", i)
        v = stack[-1]
        c = len(labels)
        labels.append(labels[v] + inc)
        parents.append(v)
        i += 1
        if i >= n or text[i] != "(":
            raise TreeParseError("expected '('", i)
        i += 1
        stack.append(c)
    if i != n:
        raise TreeParseError("trailing data after tree", i)
    return LabelledPlaneTree.unchecked(labels, parents)


# -- truncation and edge profile ------------------------------------------


def truncate(t: LabelledPlaneTree, level: int) -> LabelledPlaneTree:
    """Delete every vertex having a strict ancestor labelled ``level``.

    Vertices labelled ``level`` themselves are kept (as leaves).  The root
    is always kept.
    """
    labels, parents = t.labels, t.parents
    # new[v]: v's index in the result, or -1 when v is deleted.  A vertex is
    # kept when its parent is kept and not labelled ``level``; the kept set
    # is closed under ancestors, so t's preorder restricted to it is its
    # preorder.
    new = [0] * len(labels)
    kept_labels = [labels[0]]
    kept_parents: list = [None]
    for v in range(1, len(labels)):
        p = parents[v]
        np = new[p]
        if np < 0 or labels[p] == level:
            new[v] = -1
            continue
        new[v] = len(kept_labels)
        kept_labels.append(labels[v])
        kept_parents.append(np)
    return LabelledPlaneTree.unchecked(kept_labels, kept_parents)


@dataclass(frozen=True)
class VerticalEdgeProfile:
    """Edge and vertex counts of a labelled plane tree, per integer label.

    For a tree rooted at label 0, every edge whose labels differ (by ±1)
    is counted once, at its upper label k:

    - ``up[k]``: edges from a vertex labelled k-1 to a child labelled k;
    - ``down[k]``: edges from a vertex labelled k to a child labelled k-1.

    ``vertical[k]`` counts vertices labelled k.  Labels with no count are
    absent.  The chain's positive and mirrored negative halves are
    read-only views, indexed by a level m >= 1: ``x_plus[m] = up[m]``,
    ``x_minus[m] = down[m]``, ``check_plus[m] = up[1-m]`` and
    ``check_minus[m] = down[1-m]``.

    ``mass_below(m)``, the number of edges with both labels <= m-1, is
    read off these counts: each non-root vertex labelled <= m-1 is the
    child end of one edge, whose parent is labelled <= m-1 too unless the
    edge goes down from m to m-1.  So mass_below(m) is the sum of
    ``vertical[k]`` over k <= m-1, less the root when m >= 1, less
    ``down[m]``.
    """

    up: dict
    down: dict
    vertical: dict

    @property
    def x_plus(self) -> dict:
        return {k: c for k, c in self.up.items() if k >= 1}

    @property
    def x_minus(self) -> dict:
        return {k: c for k, c in self.down.items() if k >= 1}

    @property
    def check_plus(self) -> dict:
        return {1 - k: c for k, c in self.up.items() if k <= 0}

    @property
    def check_minus(self) -> dict:
        return {1 - k: c for k, c in self.down.items() if k <= 0}

    def halves(self) -> tuple:
        """``(plus, check)``, as :func:`gwprofile.kernel.count_profile` takes
        them: the pairs (x_plus[m], x_minus[m]) and (check_plus[m],
        check_minus[m]) for m = 1 up to the last level of each half."""

        def pairs(a, b):
            top = max([*a, *b], default=0)
            return tuple((a.get(m, 0), b.get(m, 0)) for m in range(1, top + 1))

        return pairs(self.x_plus, self.x_minus), pairs(self.check_plus, self.check_minus)

    def mass_below(self, m: int) -> int:
        """Number of edges with both endpoint labels <= m - 1."""
        below = sum(c for k, c in self.vertical.items() if k < m)
        return below - (m >= 1) - self.down.get(m, 0)


def edge_profile(t: LabelledPlaneTree) -> VerticalEdgeProfile:
    """Compute the vertical edge profile of a tree rooted at label 0."""
    if t.root_label != 0:
        raise DomainError("edge profile requires a tree rooted at label 0")
    up: dict = {}
    down: dict = {}
    labels = t.labels
    for lv, p in zip(labels[1:], t.parents[1:]):
        lp = labels[p]
        if lv > lp:
            up[lv] = up.get(lv, 0) + 1
        elif lv < lp:
            down[lp] = down.get(lp, 0) + 1
    return VerticalEdgeProfile(up, down, dict(Counter(labels)))
