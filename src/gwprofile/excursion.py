"""Level-m decomposition of labelled trees into excursions, and its inverse.

Fix a tree t rooted at label 0, a nonzero level m and its sign s = ±1.
Cutting every edge whose endpoint labels are {m-s, m} (the edges crossing
height m - s/2) and duplicating the child endpoint of each cut edge
splits t into:

- the *root component* t^[m]: the vertices with no strict ancestor
  labelled m; its vertices labelled m are exactly the duplicated
  first-hit leaves;
- a forest of *excursions*: components rooted at duplicated children.
  One rooted at label m has sign s (every label on m's side of the cut);
  one rooted at label m-s has sign -s.  Each is shifted so that its root
  is labelled by its sign.  Signs alternate with forest height, starting
  with s at the roots.

Reflecting every label of t maps its cut at m onto the cut of the
reflected tree at -m, with the same edges and every sign flipped; this
is why one pass, written in s, serves both signs of m.

The forest genealogy sets τ' as a child of τ when the root of τ' was cut
from a vertex of τ; each excursion then has exactly as many forest
children as it has label-0 (shifted) leaves, and the children attach to
those leaves in plane order.  So the forest stores no attachment slots (a
child's slot is its rank among its siblings) and an excursion is a plain
:class:`LabelledPlaneTree`: its sign is ``labels[0]`` and its leaf count
``labels.count(0)``.  :func:`reconstruct` inverts the map exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DomainError, ReconstructionError
from .model import TreeModel, _vertex_factors, excursion_weight
from .tree import LabelledPlaneTree


@dataclass(frozen=True)
class ExcursionForest:
    """Plane forest of excursions with alternating signs.

    Forest vertices are numbered 0..k-1 by their cut edge in the
    decomposed tree t: by the preorder index in t of the cut edge's parent
    endpoint (the vertex the excursion root was cut from), and among cut
    edges from the same vertex in plane order.  ``roots`` lists the forest
    roots and ``children[v]`` the forest children of v, each in plane
    order, which is the order of their attachment leaves: the i-th root
    attaches to the i-th port leaf, in preorder, of the root component
    (its leaves labelled m), and the i-th child of v to the i-th label-0
    leaf of v's excursion.  Roots have the sign of the level.

    ``decorations[v]`` is v's excursion as a plain tree: its root is
    labelled by its sign, every label has that weak sign, and its label-0
    vertices are leaves.  Only :func:`reconstruct` checks this.
    """

    children: Tuple[Tuple[int, ...], ...]
    roots: Tuple[int, ...]
    decorations: Tuple[LabelledPlaneTree, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    def validate(self, root_sign: int) -> None:
        """Check signs (``root_sign`` at the roots) and child counts in one
        pass from the roots."""
        reached = [False] * self.n_vertices
        stack = [(r, root_sign) for r in self.roots]
        while stack:
            v, expected_sign = stack.pop()
            if reached[v]:
                raise ReconstructionError(f"forest vertex {v} is reached twice")
            reached[v] = True
            labels = self.decorations[v].labels
            if labels[0] != expected_sign:
                raise ReconstructionError(
                    f"forest vertex {v}: sign {labels[0]}, expected {expected_sign}"
                )
            kids = self.children[v]
            n = labels.count(0)
            if n != len(kids):
                raise ReconstructionError(
                    f"forest vertex {v}: decoration has n={n} label-0 "
                    f"leaves but {len(kids)} forest children"
                )
            stack.extend((c, -expected_sign) for c in kids)
        if not all(reached):
            raise ReconstructionError(
                "some forest vertices are not reached from the roots"
            )


@dataclass(frozen=True)
class ExcursionDecomposition:
    level: int
    root_component: LabelledPlaneTree
    forest: ExcursionForest


def decompose(t: LabelledPlaneTree, m: int) -> ExcursionDecomposition:
    """Cut t at height m - s/2, where s = sign(m)."""
    if t.root_label != 0:
        raise DomainError("decomposition requires a tree rooted at label 0")
    if m == 0:
        raise DomainError("decomposition level must be nonzero")
    s = 1 if m > 0 else -1
    labels, parents = t.labels, t.parents
    n = len(labels)
    # Components in creation order: 0 is the root component, c + 1 the
    # excursion of the c-th cut edge met in t's preorder.  t's preorder
    # restricted to a component, with each cut child standing in for its
    # duplicated leaf, is the component's preorder, so every vertex is
    # appended where it lands and no component is renumbered.
    comp = [0] * n  # component of each vertex of t
    local = [0] * n  # its index inside that component
    comp_labels = [[labels[0]]]
    comp_parents: list = [[None]]
    comp_shift = [0]  # added to t's labels: excursion roots become +1 / -1
    ports: list = [[]]  # per component, the cuts attached below it, in preorder
    cut_from = []  # per cut: the vertex of t it was cut from
    cut_sum = 2 * m - s  # a cut edge joins labels m - s and m
    for v in range(1, n):
        p = parents[v]
        lv = labels[v]
        b = comp[p]
        cl = comp_labels[b]
        # v itself, or for a cut edge the duplicated leaf standing in for it.
        comp_parents[b].append(local[p])
        cl.append(lv + comp_shift[b])
        if labels[p] + lv != cut_sum:
            comp[v] = b
            local[v] = len(cl) - 1
            continue
        # Cut edge: v roots a new excursion.
        ports[b].append(len(cut_from))
        cut_from.append(p)
        sign = s if lv == m else -s
        comp[v] = len(comp_labels)
        comp_labels.append([sign])
        comp_parents.append([None])
        comp_shift.append(sign - lv)
        ports.append([])

    # Number the forest by cut_from, stably (see ExcursionForest).
    k = len(cut_from)
    order = sorted(range(k), key=cut_from.__getitem__)
    number = [0] * k
    for i, c in enumerate(order):
        number[c] = i
    forest = ExcursionForest(
        children=tuple(tuple(number[x] for x in ports[c + 1]) for c in order),
        roots=tuple(number[x] for x in ports[0]),
        decorations=tuple(
            LabelledPlaneTree.unchecked(comp_labels[c + 1], comp_parents[c + 1])
            for c in order
        ),
    )
    root_component = LabelledPlaneTree.unchecked(comp_labels[0], comp_parents[0])
    return ExcursionDecomposition(level=m, root_component=root_component, forest=forest)


# -- reconstruction ----------------------------------------------------------


def reconstruct(d: ExcursionDecomposition) -> LabelledPlaneTree:
    """Glue the root component and decorated forest back into a tree.

    The one check of a decomposition from outside the package:
    :meth:`ExcursionForest.validate` checks each decoration's root sign
    and leaf count, and the glue walk rejects a port (label m in the root
    component, 0 in an excursion) with children, which, with steps of at
    most 1, also keeps each excursion's labels of its root's weak sign.
    """
    m = d.level
    if m == 0:
        raise DomainError("decomposition level must be nonzero")
    s = 1 if m > 0 else -1
    rc = d.root_component
    forest = d.forest
    if rc.root_label != 0:
        raise ReconstructionError("root component must be rooted at label 0")
    forest.validate(s)
    n_ports = rc.labels.count(m)
    if n_ports != len(forest.roots):
        raise ReconstructionError(
            f"root component has {n_ports} leaves labelled {m} but the "
            f"forest has {len(forest.roots)} roots"
        )

    # One pass in preorder.  Each component is walked through its own
    # preorder arrays; at a port (a leaf labelled m in the root component,
    # 0 in an excursion) the walk switches to the attached excursion, whose
    # root takes the port's place, and resumes after it; the i-th port
    # takes the i-th forest child.  State of the component being walked:
    # its labels and parents, the shift back to glued labels, the port
    # label, its forest children, the output index of each of its
    # vertices, the next vertex, the next child and the output parent of
    # its root.
    out_labels: list = []
    out_parents: list = []
    cl, cp, shift, port = rc.labels, rc.parents, 0, m
    kids, out, u, used, root_parent = forest.roots, [0] * len(cl), 0, 0, None
    suspended = []
    while True:
        if u == len(cl):
            if not suspended:
                break
            cl, cp, shift, port, kids, out, u, used, root_parent = suspended.pop()
            continue
        label = cl[u]
        if label == port:
            if u + 1 < len(cl) and cp[u + 1] == u:
                raise ReconstructionError(f"port vertex {u} is not a leaf")
            fv = kids[used]
            exc = forest.decorations[fv]
            suspended.append(
                (cl, cp, shift, port, kids, out, u + 1, used + 1, root_parent)
            )
            root_parent = out[cp[u]]
            # Signs alternate from s at the roots (validate checked them), so
            # the excursion root's glued label is the port's: m, m - s, m, ...
            shift = (m - s) if exc.labels[0] == s else m
            cl, cp, port = exc.labels, exc.parents, 0
            kids, out, u, used = forest.children[fv], [0] * len(cl), 0, 0
            continue
        out[u] = len(out_labels)
        out_labels.append(label + shift)
        out_parents.append(out[cp[u]] if u else root_parent)
        u += 1
    return LabelledPlaneTree.unchecked(out_labels, out_parents)


# -- weights -----------------------------------------------------------------


def root_component_weight(
    model: TreeModel, root_component: LabelledPlaneTree, m: int
) -> Fraction:
    """The root component's factor in the weight factorization.

    Product of ξ·η factors over all vertices except the duplicated
    level-m leaves (their factors belong to the excursions below them).
    """
    return _vertex_factors(model, root_component, skip=m)


def decomposition_weight(model: TreeModel, d: ExcursionDecomposition) -> Fraction:
    """Total weight of a decomposition: root factor times excursion weights.

    Equals tree_weight(reconstruct(d)) exactly.
    """
    w = root_component_weight(model, d.root_component, d.level)
    for e in d.forest.decorations:
        if w == 0:
            return w
        w *= excursion_weight(model, e)
    return w
