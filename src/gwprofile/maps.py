"""Rooted pointed quadrangulations, the tree bijection, and ball profiles.

A planar map is stored as a rotation system on darts (half-edges)
numbered 0..n-1: lists ``alpha`` and ``sigma``, indexed by dart, give
the involution pairing the two darts of each edge and the rotation of
darts around each vertex.  Faces are the orbits of sigma o alpha.
Vertices are identified with the smallest dart of their sigma-orbit.

The bijection with labelled trees draws one arc from every contour
corner of the tree to its successor (the next corner, in contour
order, whose label is one less); corners of minimal label connect to
the extra pointed vertex.  Its orientation conventions are written in
the code of ``tree_to_map`` and ``map_to_tree``: arc ends inside a
corner in ascending clockwise distance, the corners of a vertex in
reverse contour order, the arcs around the pointed vertex in contour
order, and children read back along the inverse rotation.  They were
selected by exhaustive search as the unique self-consistent choice and
are locked in place by the round-trip tests - the tests, not any
external authority, validate them.  Ascending clockwise distance takes
no sort: at a corner the arc that leaves it comes first, then the arcs
arriving from the corners after it in cyclic contour order, because
labels change by at most 1 between consecutive corners (see
``tree_to_map``).

Ball profiles are counted, not built: one breadth-first search from the
point and Euler's formula give the external faces and perimeters of
every ball (see ``ball_profile``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, IntegrityError
from .tree import LabelledPlaneTree, edge_profile


def _orbits(perm: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Cycles of a permutation of 0..n-1, each from its smallest element."""
    seen = bytearray(len(perm))
    orbits = []
    d = seen.find(0)
    while d >= 0:
        orbit = [d]
        seen[d] = 1
        e = perm[d]
        while e != d:
            orbit.append(e)
            seen[e] = 1
            e = perm[e]
        orbits.append(tuple(orbit))
        d = seen.find(0, d + 1)
    return tuple(orbits)


class PlanarMap:
    """Immutable connected planar map given by its rotation system.

    ``alpha`` and ``sigma`` are lists on darts 0..n-1; ``vertex_of[d]``
    is the vertex (smallest dart of the sigma-orbit) of dart d.
    """

    def __init__(
        self,
        alpha: Sequence[int],
        sigma: Sequence[int],
        root_dart: Optional[int] = None,
        pointed_vertex: Optional[int] = None,
    ):
        self.alpha = alpha = list(alpha)
        self.sigma = sigma = list(sigma)
        self.darts = darts = range(len(alpha))
        if not darts:
            raise IntegrityError("empty dart set")
        dartset = set(darts)
        if len(sigma) != len(darts) or set(sigma) != dartset:
            raise IntegrityError("sigma is not a permutation of the darts")
        if set(alpha) != dartset or any(
            a == d or alpha[a] != d for d, a in enumerate(alpha)
        ):
            raise IntegrityError("alpha is not a fixed-point-free involution")
        # connectivity under <alpha, sigma>
        seen = bytearray(len(darts))
        seen[0] = 1
        stack = [0]
        while stack:
            d = stack.pop()
            for e in (alpha[d], sigma[d]):
                if not seen[e]:
                    seen[e] = 1
                    stack.append(e)
        if 0 in seen:
            raise IntegrityError("map is not connected")
        if root_dart is not None and root_dart not in darts:
            raise IntegrityError("root dart is not a dart")
        if pointed_vertex is not None and pointed_vertex not in darts:
            raise IntegrityError("pointed vertex is not a dart")
        self._vertices = _orbits(sigma)
        self.vertex_of = vertex_of = [0] * len(darts)
        for orbit in self._vertices:
            for d in orbit:
                vertex_of[d] = orbit[0]
        self._faces = _orbits([sigma[a] for a in alpha])
        self.root_dart = root_dart
        self.pointed_vertex = (
            None if pointed_vertex is None else vertex_of[pointed_vertex]
        )

    # -- structure ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.darts) // 2

    def vertices(self) -> Tuple[Tuple[int, ...], ...]:
        return self._vertices

    def faces(self) -> Tuple[Tuple[int, ...], ...]:
        return self._faces

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_faces(self) -> int:
        return len(self._faces)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def distances_from(self, vertex: int) -> List[int]:
        """For each dart, the graph distance from ``vertex`` to its vertex (BFS)."""
        alpha, sigma, vertex_of = self.alpha, self.sigma, self.vertex_of
        dist = [-1] * len(alpha)  # per vertex, at its representative dart
        v = vertex_of[vertex]
        dist[v] = 0
        queue = [v]
        for v in queue:
            r = dist[v] + 1
            d = v
            while True:
                u = vertex_of[alpha[d]]
                if dist[u] < 0:
                    dist[u] = r
                    queue.append(u)
                d = sigma[d]
                if d == v:
                    break
        return [dist[v] for v in vertex_of]


class Quadrangulation(PlanarMap):
    """A rooted pointed map on the sphere in which every face has degree 4."""

    def __init__(self, alpha, sigma, root_dart: int, pointed_vertex: int):
        if root_dart is None or pointed_vertex is None:
            raise DomainError("a quadrangulation needs a root dart and a point")
        super().__init__(alpha, sigma, root_dart, pointed_vertex)
        for f in self._faces:
            if len(f) != 4:
                raise IntegrityError(f"face {f} has degree {len(f)}, expected 4")
        chi = self.euler_characteristic()
        if chi != 2:
            raise IntegrityError(f"Euler characteristic {chi}, expected 2: not planar")

    def root_endpoints(self) -> Tuple[int, int]:
        """(origin vertex, head vertex) of the root edge."""
        return (
            self.vertex_of[self.root_dart],
            self.vertex_of[self.alpha[self.root_dart]],
        )


# -- forward bijection ------------------------------------------------------


def _contour(t: LabelledPlaneTree) -> List[int]:
    """Vertices at the contour corners, in contour order from the root corner.

    The root contributes one corner before each child; every other
    vertex contributes a corner before each child and one after the
    last; total 2 * edges corners.
    """
    corners: List[int] = []
    # iterative: stack of (vertex, next-child-index)
    stack = [(0, 0)]
    while stack:
        v, i = stack.pop()
        kids = t.children[v]
        if i < len(kids):
            corners.append(v)
            stack.append((v, i + 1))
            stack.append((kids[i], 0))
        elif v != 0:
            corners.append(v)
    return corners


def _successors(labels: Sequence[int]) -> List[Optional[int]]:
    """For each position, the next position (cyclically) with label - 1.

    Positions of minimal label get None (they connect to the pointed
    vertex).
    """
    n = len(labels)
    succ: List[Optional[int]] = [None] * n
    waiting: dict[int, List[int]] = {}
    for j in list(range(n)) * 2:
        lab = labels[j]
        for i in waiting.pop(lab + 1, ()):
            if succ[i] is None:
                succ[i] = j
        waiting.setdefault(lab, []).append(j)
    return succ


def tree_to_map(t: LabelledPlaneTree, orientation: int) -> Quadrangulation:
    """The pointed quadrangulation of a labelled tree plus one root bit.

    Faces correspond to the edges of ``t``; the root edge is the arc
    drawn at the root corner, based at the tree root when
    ``orientation`` is 0 and at the other end when it is 1.
    """
    if t.n_edges < 1:
        raise DomainError("a single-vertex tree has no quadrangulation")
    if t.labels[0] != 0:
        raise DomainError("tree root must be labelled 0")
    if orientation not in (0, 1):
        raise DomainError("orientation must be 0 or 1")
    corners = _contour(t)
    labels = [t.labels[v] for v in corners]
    n = len(corners)
    succ = _successors(labels)
    # darts: 2i leaves corner i, 2i+1 arrives at succ[i] (or the point)
    alpha = [d ^ 1 for d in range(2 * n)]
    # Arc ends at corner p in ascending clockwise distance of the far end:
    # the arc leaving p, then the arcs arriving from corners j in cyclic
    # order starting after p.  The leaving arc comes first because labels
    # change by at most 1 between consecutive corners: from an arriving j
    # (label l_p + 1) on to p no corner has label l_p, so none has l_p - 1,
    # and succ[p], when it exists, lies between p and every such j.  The
    # point's arc (succ[p] is None) comes first too: the pointed vertex sits
    # in the face on the forward side of every minimal corner.
    fans = [[2 * p] for p in range(n)]
    for i, s in enumerate(succ):  # j > p first: arcs that wrap around
        if s is not None and s < i:
            fans[s].append(2 * i + 1)
    star_cycle = []
    for i, s in enumerate(succ):  # then j < p
        if s is None:
            star_cycle.append(2 * i + 1)
        elif s > i:
            fans[s].append(2 * i + 1)
    corners_of: List[List[int]] = [[] for _ in range(t.n_vertices)]
    for p, v in enumerate(corners):
        corners_of[v].append(p)
    sigma = [0] * (2 * n)
    # corners around a vertex: reverse contour order; around the point:
    # contour order
    cycles = [[d for p in reversed(ps) for d in fans[p]] for ps in corners_of]
    for cycle in cycles + [star_cycle]:
        for i, d in enumerate(cycle):
            sigma[cycle[i - 1]] = d
    root_dart = 0 if orientation == 0 else 1
    return Quadrangulation(alpha, sigma, root_dart, star_cycle[0])


# -- inverse bijection ------------------------------------------------------


def _face_edge(face, lab) -> Tuple[int, int]:
    """The selected tree edge of a face, as its two anchor darts.

    With vertex labels (m, m-1, m, m-1) around the face the selected
    edge joins the two label-m corners; with (m+1, m, m-1, m) it joins
    the first two.  Anchors are the face darts at the edge's endpoints.
    """
    ls = [lab[d] for d in face]
    top = max(ls)
    idx = [i for i in range(4) if ls[i] == top]
    for i in range(4):
        if abs(ls[i] - ls[(i + 1) % 4]) != 1:
            raise IntegrityError(f"face {face} labels {ls} are not bipartite")
    if len(idx) == 2:
        i, j = idx
        if (j - i) % 4 != 2:
            raise IntegrityError(f"face {face} labels {ls} are malformed")
        return face[i], face[j]
    if len(idx) == 1:
        i = idx[0]
        return face[i], face[(i + 1) % 4]
    raise IntegrityError(f"face {face} labels {ls} are malformed")


def map_to_tree(q: Quadrangulation) -> Tuple[LabelledPlaneTree, int]:
    """The labelled tree and orientation bit encoding a quadrangulation.

    Vertex labels are distance-to-the-point minus d_star; each face
    selects one tree edge; the tree root is the root-edge endpoint
    farther from the point, and the bit records whether the root dart
    is based there.
    """
    vertex_of = q.vertex_of
    dist = q.distances_from(q.pointed_vertex)
    x0, x1 = q.root_endpoints()
    d_star = max(dist[x0], dist[x1])
    lab = [d - d_star for d in dist]  # per dart: the label of its vertex
    # partner[d]: for an anchor dart d of a selected edge, the anchor dart
    # at the edge's other end; -1 for every other dart
    partner = [-1] * len(dist)
    for face in q.faces():
        da, db = _face_edge(face, lab)
        if vertex_of[da] == vertex_of[db]:
            raise IntegrityError("face selected a loop edge")
        if not (dist[da] and dist[db]):
            raise IntegrityError("a selected edge touches the pointed vertex")
        partner[da] = db
        partner[db] = da
    # children are read back along the inverse rotation
    step = [0] * len(dist)
    for a, b in enumerate(q.sigma):
        step[b] = a

    root = x0 if dist[x0] == d_star else x1
    bit = 0 if x0 == root else 1
    if lab[root] != 0:
        raise IntegrityError("root vertex is not labelled 0")
    # Build the plane tree by DFS; a vertex gets its preorder index when
    # it is popped.
    labels: List[int] = []
    parents: List[Optional[int]] = []
    root_based = q.root_dart if bit == 0 else q.alpha[q.root_dart]
    # stack entries: (parent tree index, first rotation dart, inclusive).
    # The first dart is the anchor of the parent edge (excluded) or, at the
    # root, the root dart (included if it is an anchor).
    stack: List[Tuple[Optional[int], int, bool]] = [(None, root_based, True)]
    seen = bytearray(len(dist))
    seen[root] = 1
    while stack:
        parent, start, include_start = stack.pop()
        iv = len(labels)
        labels.append(lab[start])
        parents.append(parent)
        entries = []
        d = start
        while True:  # tree edges at this vertex in rotation order
            e = partner[d]
            if e >= 0 and (include_start or d != start):
                w = vertex_of[e]
                if seen[w]:
                    raise IntegrityError("selected edges contain a cycle")
                seen[w] = 1
                entries.append((iv, e, False))
            d = step[d]
            if d == start:
                break
        stack.extend(reversed(entries))
    if len(labels) != q.n_vertices - 1:
        raise IntegrityError("selected edges do not span the vertices")
    return LabelledPlaneTree.unchecked(labels, parents), bit


# -- balls and profiles -----------------------------------------------------


@dataclass(frozen=True)
class BallSummary:
    """External-face counts and perimeter sums of all balls around the point.

    ``C[k-1]`` external faces and ``P[k-1]`` total external perimeter of
    the radius-k ball, for 1 <= k <= k_max (the eccentricity of the
    point).
    """

    d_star: int
    k_max: int
    P: Tuple[int, ...]
    C: Tuple[int, ...]


def ball_profile(q: Quadrangulation) -> BallSummary:
    """(P_k, C_k) for every radius up to the eccentricity of the point.

    The radius-k ball keeps the edges whose two endpoints are within
    distance k of the point.  Let V_k count the vertices of ``q`` within
    k, E_k the edges with both endpoints within k, and I_k the faces
    with all four corners within k.  The ball has
    C_k = 2 - V_k + E_k - I_k external faces, of total degree
    P_k = 2 E_k - 4 I_k, because:

    - the ball is connected: each vertex's BFS-parent edge stays inside
      it, so it holds every vertex within k;
    - a face of ``q`` is a face of the ball exactly when all its corners
      are within k, and such a face has 4 darts;
    - every other face of the ball is external;
    - the ball is a submap of a planar map, so Euler's formula on the
      sphere gives V_k - E_k + (faces) = 2.
    """
    dist = q.distances_from(q.pointed_vertex)
    x0, x1 = q.root_endpoints()
    d_star = max(dist[x0], dist[x1])
    k_max = max(dist)
    vertices = [0] * (k_max + 1)
    edges = [0] * (k_max + 1)
    inner = [0] * (k_max + 1)
    for orbit in q.vertices():
        vertices[dist[orbit[0]]] += 1
    for d, e in enumerate(q.alpha):
        if d < e:
            edges[max(dist[d], dist[e])] += 1
    for f in q.faces():
        inner[max([dist[d] for d in f])] += 1
    V, E, I = (list(accumulate(h)) for h in (vertices, edges, inner))
    radii = range(1, k_max + 1)
    P = tuple(2 * E[k] - 4 * I[k] for k in radii)
    C = tuple(2 - V[k] + E[k] - I[k] for k in radii)
    return BallSummary(d_star, k_max, P, C)


@dataclass
class ProfileReport:
    checked: int = 0
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_profile_relations(q: Quadrangulation, d_star_shift: int = 0):
    """Compare the ball profile with the tree-side edge profile.

    For every radius k: C_k = Xcheck+_{d_star-k} + 1 and
    P_k / 2 = Xcheck+_{d_star-k} + Xcheck-_{d_star-k} below d_star;
    C_k = X+_{k-d_star+1} and P_k / 2 = X+ + X- at k-d_star+1 from
    d_star up.  P_k is even throughout, since ``ball_profile`` computes
    it as 2 E_k - 4 I_k.  ``d_star_shift`` perturbs the
    alignment (negative control); 0 is the asserted alignment.
    """
    summary = ball_profile(q)
    t, _ = map_to_tree(q)
    prof = edge_profile(t)
    d_star = summary.d_star + d_star_shift
    mism = []
    checked = 0
    for k in range(1, summary.k_max + 1):
        P_k, C_k = summary.P[k - 1], summary.C[k - 1]
        checked += 1
        if k < d_star:
            cx = prof.check_plus.get(d_star - k, 0)
            cm = prof.check_minus.get(d_star - k, 0)
            if C_k != cx + 1:
                mism.append(f"k={k}: C={C_k} but Xcheck+({d_star - k})+1={cx + 1}")
            if P_k != 2 * (cx + cm):
                mism.append(f"k={k}: P={P_k} but 2(Xcheck+ + Xcheck-)={2 * (cx + cm)}")
        else:
            m = k - d_star + 1
            xp = prof.x_plus.get(m, 0)
            xm = prof.x_minus.get(m, 0)
            if C_k != xp:
                mism.append(f"k={k}: C={C_k} but X+({m})={xp}")
            if P_k != 2 * (xp + xm):
                mism.append(f"k={k}: P={P_k} but 2(X+ + X-)({m})={2 * (xp + xm)}")
    return ProfileReport(checked, tuple(mism))


# -- counting ---------------------------------------------------------------


def card_pointed_quadrangulations(n: int) -> int:
    """Number of rooted pointed quadrangulations with n faces.

    Under this artifact's counting convention (tree bijection side):
    2 * 3^n * Catalan(n) - each map is (labelled tree, orientation bit)
    with 3^n Catalan(n) labelled trees of n edges.
    """
    import math

    if n < 1:
        raise DomainError("n must be >= 1")
    catalan = math.comb(2 * n, n) // (n + 1)
    return 2 * 3**n * catalan


# -- serialization ----------------------------------------------------------


def save_map(q: PlanarMap, path: str) -> None:
    """Per-dart CSV (dart, alpha, sigma) with a root/point header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["root_dart", q.root_dart if q.root_dart is not None else ""])
        w.writerow(
            ["pointed_vertex", q.pointed_vertex if q.pointed_vertex is not None else ""]
        )
        w.writerow(["dart", "alpha", "sigma"])
        for d in q.darts:
            w.writerow([d, q.alpha[d], q.sigma[d]])


def load_map(path: str) -> Quadrangulation:
    """Read a ``save_map`` CSV; dart ids are renumbered 0..n-1 in sorted order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        root_dart = int(rows[0][1])
        pointed = int(rows[1][1])
        if rows[2] != ["dart", "alpha", "sigma"]:
            raise ValueError("bad column header")
        table = []
        for row in rows[3:]:
            d, a, s = (int(x) for x in row)
            table.append((d, a, s))
        ids = sorted(d for d, _, _ in table)
        for d, e in zip(ids, ids[1:]):
            if d == e:
                raise ValueError(f"dart {d} is listed twice")
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed map CSV {path}: {exc}") from exc
    # An id that is not a listed dart becomes n, which validation rejects.
    n = len(ids)
    index = {d: i for i, d in enumerate(ids)}
    alpha = [0] * n
    sigma = [0] * n
    for d, a, s in table:
        alpha[index[d]] = index.get(a, n)
        sigma[index[d]] = index.get(s, n)
    return Quadrangulation(alpha, sigma, index.get(root_dart, n), index.get(pointed, n))
