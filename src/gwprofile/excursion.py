"""Level-m decomposition of labelled trees into excursions, and its inverse.

Fix a tree t rooted at label 0 and a nonzero level m.  For m >= 1, cutting
every edge whose endpoint labels are {m-1, m} (the edges crossing height
m - 1/2) and duplicating the child endpoint of each cut edge splits t into:

- the *root component* t^[m]: the vertices with no strict ancestor
  labelled m; its vertices labelled m are exactly the duplicated
  first-hit leaves;
- a forest of *excursions*: components rooted at duplicated children,
  positive (all labels >= m, shifted down by m-1) when rooted at label m,
  negative (all labels <= m-1, shifted down by m) when rooted at label
  m-1.  Signs alternate with forest height, starting positive.

The forest genealogy sets τ' as a child of τ when the root of τ' was cut
from a vertex of τ; each excursion then has exactly as many forest
children as it has label-0 (shifted) leaves, and the children attach to
those leaves in plane order.  :func:`reconstruct` inverts the map exactly.

Negative levels use the mirrored construction: reflect all labels,
decompose at -m, and reflect the pieces back (signs flip; forest roots are
negative excursions).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import DomainError, ReconstructionError
from .model import TreeModel, is_excursion
from .tree import LabelledPlaneTree, encode, renumber_preorder


@dataclass(frozen=True)
class Excursion:
    """A positive or negative label excursion.

    ``tree`` carries the shifted labels (root +1 or -1); ``n`` is the
    number of label-0 vertices, all of which must be leaves.
    """

    tree: LabelledPlaneTree
    sign: int
    n: int

    def __post_init__(self):
        sign = is_excursion(self.tree)
        if sign != self.sign:
            raise DomainError(f"excursion sign {self.sign} does not match tree")
        n = sum(1 for l in self.tree.labels if l == 0)
        if n != self.n:
            raise DomainError(f"excursion n={self.n} does not match tree ({n})")

    @classmethod
    def from_tree(cls, tree: LabelledPlaneTree) -> "Excursion":
        sign = is_excursion(tree)
        return cls(tree, sign, sum(1 for l in tree.labels if l == 0))

    def key(self) -> str:
        return encode(self.tree)


@dataclass(frozen=True)
class ExcursionForest:
    """Plane forest of excursions with alternating signs.

    Vertices are indexed 0..k-1 in creation (preorder-of-cut) order;
    ``roots`` lists the forest roots in plane order; ``attachments[v]`` is
    the index (in preorder) of the attachment leaf inside the parent
    component (the root component for forest roots).
    """

    parents: Tuple[Optional[int], ...]
    children: Tuple[Tuple[int, ...], ...]
    roots: Tuple[int, ...]
    signs: Tuple[int, ...]
    attachments: Tuple[int, ...]
    decorations: Tuple[Excursion, ...]
    root_sign: int

    @property
    def n_vertices(self) -> int:
        return len(self.parents)

    def height(self, v: int) -> int:
        h = 0
        while self.parents[v] is not None:
            v = self.parents[v]
            h += 1
        return h

    def validate(self) -> None:
        for v in range(self.n_vertices):
            exc = self.decorations[v]
            expected_sign = self.root_sign * (-1) ** self.height(v)
            if exc.sign != expected_sign:
                raise ReconstructionError(
                    f"forest vertex {v}: sign {exc.sign}, expected {expected_sign}"
                )
            if exc.n != len(self.children[v]):
                raise ReconstructionError(
                    f"forest vertex {v}: decoration has n={exc.n} label-0 "
                    f"leaves but {len(self.children[v])} forest children"
                )
            kid_slots = sorted(self.attachments[c] for c in self.children[v])
            if kid_slots != list(range(len(kid_slots))):
                raise ReconstructionError(
                    f"forest vertex {v}: attachment indices are not a "
                    "bijection onto its leaves"
                )
        root_slots = sorted(self.attachments[r] for r in self.roots)
        if root_slots != list(range(len(root_slots))):
            raise ReconstructionError(
                "root attachment indices are not a bijection"
            )


@dataclass(frozen=True)
class ExcursionDecomposition:
    level: int
    root_component: LabelledPlaneTree
    forest: ExcursionForest


def _mirror(d: ExcursionDecomposition) -> ExcursionDecomposition:
    """Reflect every label: the decomposition of the reflected tree at -level.

    An involution; it flips every sign, the level and the root sign.
    """
    f = d.forest
    forest = replace(
        f,
        signs=tuple(-s for s in f.signs),
        decorations=tuple(
            Excursion(e.tree.relabel(reflect=True), -e.sign, e.n) for e in f.decorations
        ),
        root_sign=-f.root_sign,
    )
    return ExcursionDecomposition(
        -d.level, d.root_component.relabel(reflect=True), forest
    )


class _Builder:
    """One component under construction, its vertices in creation order."""

    __slots__ = ("labels", "parents", "children", "port_owners")

    def __init__(self, root_label: int):
        self.labels = [root_label]
        self.parents = [None]
        self.children = [[]]
        # (forest vertex, builder vertex index of its duplicated leaf)
        self.port_owners = []

    def add(self, parent: int, label: int) -> int:
        idx = len(self.labels)
        self.labels.append(label)
        self.parents.append(parent)
        self.children.append([])
        self.children[parent].append(idx)
        return idx


def decompose(t: LabelledPlaneTree, m: int) -> ExcursionDecomposition:
    """Cut t at height m - 1/2 (mirrored for m <= -1)."""
    if t.root_label != 0:
        raise DomainError("decomposition requires a tree rooted at label 0")
    if m == 0:
        raise DomainError("decomposition level must be nonzero")
    if m < 0:
        return _mirror(_decompose_positive(t.relabel(reflect=True), -m))
    return _decompose_positive(t, m)


def _decompose_positive(t: LabelledPlaneTree, m: int) -> ExcursionDecomposition:
    root_builder = _Builder(t.labels[0])
    builders = [root_builder]  # builder 0 = root component
    forest_parent: list = []
    signs: list = []

    labels = t.labels
    # Stack of (vertex in t, builder index, vertex index inside builder);
    # children are processed in plane order when allocating builder slots,
    # then pushed reversed so the pop order is preorder.
    stack = [(0, 0, 0)]
    while stack:
        v, b, nv = stack.pop()
        builder = builders[b]
        lv = labels[v]
        entries = []
        for c in t.children[v]:
            lc = labels[c]
            if (lv == m - 1 and lc == m) or (lv == m and lc == m - 1):
                # Cut edge: leaf duplicate stays here, child starts a new
                # excursion component.
                leaf = builder.add(nv, lc)
                builders.append(_Builder(lc))
                fv = len(forest_parent)
                forest_parent.append(None if b == 0 else b - 1)
                signs.append(1 if lc == m else -1)
                builder.port_owners.append((fv, leaf))
                entries.append((c, len(builders) - 1, 0))
            else:
                nc = builder.add(nv, lc)
                entries.append((c, b, nc))
        stack.extend(reversed(entries))

    # Builder indices follow DFS-with-sibling-batches order; each component
    # is renumbered to preorder.  The attachment index of a forest vertex is
    # the preorder rank of its duplicated leaf among the ports of the parent
    # component.  Decoration labels are shifted so that their root is +1 or -1.
    k = len(forest_parent)
    attachments = [0] * k
    components = []
    for b, builder in enumerate(builders):
        rank, labels, parents, children = renumber_preorder(
            builder.labels, builder.parents, builder.children
        )
        in_preorder = sorted(builder.port_owners, key=lambda fl: rank[fl[1]])
        for slot, (fv, _) in enumerate(in_preorder):
            attachments[fv] = slot
        if b:
            shift = -(m - 1) if signs[b - 1] == 1 else -m
            labels = [l + shift for l in labels]
        components.append(LabelledPlaneTree(labels, parents, children))
    decorations = [
        Excursion(components[fv + 1], signs[fv], len(builders[fv + 1].port_owners))
        for fv in range(k)
    ]

    children: list = [[] for _ in range(k)]
    roots = []
    for fv, p in enumerate(forest_parent):
        if p is None:
            roots.append(fv)
        else:
            children[p].append(fv)
    # Order forest children (and roots) by attachment index = plane order.
    roots.sort(key=lambda fv: attachments[fv])
    for lst in children:
        lst.sort(key=lambda fv: attachments[fv])

    forest = ExcursionForest(
        parents=tuple(forest_parent),
        children=tuple(tuple(c) for c in children),
        roots=tuple(roots),
        signs=tuple(signs),
        attachments=tuple(attachments),
        decorations=tuple(decorations),
        root_sign=1,
    )
    return ExcursionDecomposition(
        level=m, root_component=components[0], forest=forest
    )


# -- reconstruction ----------------------------------------------------------


def reconstruct(d: ExcursionDecomposition) -> LabelledPlaneTree:
    """Glue the root component and decorated forest back into a tree."""
    m = d.level
    if m == 0:
        raise DomainError("decomposition level must be nonzero")
    if m < 0:
        return _reconstruct_positive(_mirror(d)).relabel(reflect=True)
    return _reconstruct_positive(d)


def _reconstruct_positive(d: ExcursionDecomposition) -> LabelledPlaneTree:
    m = d.level
    rc = d.root_component
    forest = d.forest
    if rc.root_label != 0:
        raise ReconstructionError("root component must be rooted at label 0")
    if forest.root_sign != 1:
        raise ReconstructionError("forest roots must be positive excursions")
    forest.validate()

    # Glued-label components: None = root component; forest vertex v has
    # its decoration's labels shifted back up.
    def glued(fv: Optional[int]) -> LabelledPlaneTree:
        if fv is None:
            return rc
        e = forest.decorations[fv]
        return e.tree.relabel(shift=(m - 1) if e.sign == 1 else m)

    def ports(fv: Optional[int], tree: LabelledPlaneTree) -> list:
        if fv is None:
            port_label = m
        else:
            port_label = (m - 1) if forest.decorations[fv].sign == 1 else m
        out = []
        for v in tree.vertices():
            if tree.labels[v] == port_label:
                if tree.children[v]:
                    raise ReconstructionError(
                        f"component {fv}: port vertex {v} is not a leaf"
                    )
                out.append(v)
        return out

    # children of each component, indexed by attachment slot
    def slotted_children(fv: Optional[int]) -> list:
        kids = forest.roots if fv is None else forest.children[fv]
        slots = [None] * len(kids)
        for c in kids:
            slots[forest.attachments[c]] = c
        return slots

    rc_ports = ports(None, rc)
    if len(rc_ports) != len(forest.roots):
        raise ReconstructionError(
            f"root component has {len(rc_ports)} level-{m} leaves but the "
            f"forest has {len(forest.roots)} roots"
        )

    labels: list = []
    parents: list = []
    children: list = []

    # Frames: (component id, component tree, port set, child slots,
    #          next-slot counter) shared per component instance.
    class Frame:
        __slots__ = ("fv", "tree", "is_port", "slots", "used")

        def __init__(self, fv):
            self.fv = fv
            self.tree = glued(fv)
            plist = ports(fv, self.tree)
            if fv is not None:
                exc = forest.decorations[fv]
                if len(plist) != exc.n:
                    raise ReconstructionError(
                        f"forest vertex {fv}: decoration has {len(plist)} "
                        f"attachment leaves but n={exc.n}"
                    )
            self.is_port = set(plist)
            self.slots = slotted_children(fv)
            self.used = 0

    frames: Dict[Optional[int], Frame] = {}

    def frame(fv):
        fr = frames.get(fv)
        if fr is None:
            fr = Frame(fv)
            frames[fv] = fr
        return fr

    # Emission stack: (frame, vertex in component, parent final index).
    root_frame = frame(None)
    stack = [(root_frame, 0, None)]
    while stack:
        fr, v, pf = stack.pop()
        if v in fr.is_port:
            # Replace the port leaf by the root of the attached component.
            slot = fr.used
            fr.used += 1
            cfv = fr.slots[slot]
            cfr = frame(cfv)
            if cfr.tree.labels[0] != fr.tree.labels[v]:
                raise ReconstructionError(
                    f"attachment label mismatch at forest vertex {cfv}"
                )
            stack.append((cfr, 0, pf))
            continue
        idx = len(labels)
        labels.append(fr.tree.labels[v])
        parents.append(pf)
        children.append([])
        if pf is not None:
            children[pf].append(idx)
        for c in reversed(fr.tree.children[v]):
            stack.append((fr, c, idx))
    # The stack pops children in reverse order of pushing; pushing reversed
    # restores plane order, but port slot counters must also advance in
    # plane order, which the preorder pop guarantees.
    result = LabelledPlaneTree(labels, parents, children)
    return result


# -- counts and weights -------------------------------------------------------


def excursion_counts(d: ExcursionDecomposition) -> Tuple[Counter, Counter]:
    """Multiset counts of positive / negative excursions, by canonical key."""
    pos: Counter = Counter()
    neg: Counter = Counter()
    for e in d.forest.decorations:
        (pos if e.sign == 1 else neg)[e.key()] += 1
    return pos, neg


def first_hit_counts(t: LabelledPlaneTree) -> Dict[int, int]:
    """N_k for k >= 1 and the mirrored counts for k <= -1.

    N_k is the number of vertices labelled k having no strict ancestor
    labelled k, i.e. the root count of decompose(t, k)'s forest.
    """
    if t.root_label != 0:
        raise DomainError("first-hit counts require a tree rooted at label 0")
    counts: Dict[int, int] = {}
    on_path: Counter = Counter()
    # Iterative DFS with explicit enter/leave events.
    stack = [(0, False)]
    while stack:
        v, leaving = stack.pop()
        lv = t.labels[v]
        if leaving:
            on_path[lv] -= 1
            continue
        if lv != 0 and on_path[lv] == 0:
            counts[lv] = counts.get(lv, 0) + 1
        on_path[lv] += 1
        stack.append((v, True))
        for c in reversed(t.children[v]):
            stack.append((c, False))
    return counts


def root_component_weight(
    model: TreeModel, root_component: LabelledPlaneTree, m: int
) -> Fraction:
    """The root component's factor in the weight factorization.

    Product of ξ·η factors over all vertices except the duplicated
    level-m leaves (their factors belong to the excursions below them).
    """
    w = Fraction(1)
    t = root_component
    for v in t.vertices():
        if t.labels[v] == m:
            continue
        k = t.arity(v)
        w *= model.offspring.prob(k)
        if k:
            w *= model.displacement.prob(k, t.increments(v))
        if w == 0:
            return w
    return w


def decomposition_weight(model: TreeModel, d: ExcursionDecomposition) -> Fraction:
    """Total weight of a decomposition: root factor times excursion weights.

    Equals tree_weight(reconstruct(d)) exactly.
    """
    from .model import excursion_weight

    w = root_component_weight(model, d.root_component, d.level)
    for e in d.forest.decorations:
        if w == 0:
            return w
        w *= excursion_weight(model, e.tree)
    return w
