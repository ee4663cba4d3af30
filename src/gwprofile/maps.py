"""Rooted pointed quadrangulations, the tree bijection, and ball profiles.

A planar map is stored as a rotation system: darts (half-edges) with an
involution ``alpha`` pairing the two darts of each edge and a
permutation ``sigma`` giving the rotation of darts around each vertex.
Faces are the orbits of sigma o alpha.  Vertices are identified with
the smallest dart of their sigma-orbit.

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
external authority, validate them.

Ball profiles are counted, not built: one breadth-first search from the
point and Euler's formula give the external faces and perimeters of
every ball (see ``ball_profile``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, IntegrityError
from .tree import LabelledPlaneTree, edge_profile


class PlanarMap:
    """Immutable connected planar map given by its rotation system."""

    def __init__(
        self,
        alpha: Dict[int, int],
        sigma: Dict[int, int],
        root_dart: Optional[int] = None,
        pointed_vertex: Optional[int] = None,
    ):
        self.darts = tuple(sorted(alpha))
        self.alpha = dict(alpha)
        self.sigma = dict(sigma)
        self.root_dart = root_dart
        self.pointed_vertex = pointed_vertex
        self._validate()
        self._vertex_of = {}
        self._vertices = self._orbits(self.sigma)
        for orbit in self._vertices:
            rep = orbit[0]
            for d in orbit:
                self._vertex_of[d] = rep
        phi = {d: self.sigma[self.alpha[d]] for d in self.darts}
        self._faces = self._orbits(phi)
        if pointed_vertex is not None and self._vertex_of.get(
            pointed_vertex
        ) != pointed_vertex:
            self.pointed_vertex = self._vertex_of[pointed_vertex]

    def _validate(self) -> None:
        dartset = set(self.darts)
        if len(dartset) != len(self.darts) or not dartset:
            raise IntegrityError("empty or duplicated dart set")
        if set(self.sigma) != dartset or set(self.sigma.values()) != dartset:
            raise IntegrityError("sigma is not a permutation of the darts")
        for d in self.darts:
            a = self.alpha.get(d)
            if a is None or a == d or self.alpha.get(a) != d:
                raise IntegrityError("alpha is not a fixed-point-free involution")
        # connectivity under <alpha, sigma>
        seen = {self.darts[0]}
        stack = [self.darts[0]]
        while stack:
            d = stack.pop()
            for e in (self.alpha[d], self.sigma[d]):
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        if len(seen) != len(self.darts):
            raise IntegrityError("map is not connected")
        if self.root_dart is not None and self.root_dart not in dartset:
            raise IntegrityError("root dart is not a dart")

    def _orbits(self, perm: Dict[int, int]) -> Tuple[Tuple[int, ...], ...]:
        seen = set()
        orbits = []
        for d in self.darts:
            if d in seen:
                continue
            orbit = [d]
            seen.add(d)
            e = perm[d]
            while e != d:
                orbit.append(e)
                seen.add(e)
                e = perm[e]
            orbits.append(tuple(orbit))
        return tuple(orbits)

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

    def vertex_of(self, dart: int) -> int:
        return self._vertex_of[dart]

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def distances_from(self, vertex: int) -> Dict[int, int]:
        """Graph distance from a vertex (representative dart) by BFS."""
        dist = {vertex: 0}
        frontier = [vertex]
        while frontier:
            nxt = []
            for v in frontier:
                d0 = v
                d = d0
                while True:
                    u = self._vertex_of[self.alpha[d]]
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
                    d = self.sigma[d]
                    if d == d0:
                        break
            frontier = nxt
        return dist


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
            self.vertex_of(self.root_dart),
            self.vertex_of(self.alpha[self.root_dart]),
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
    waiting: Dict[int, List[int]] = {}
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
    star = -1  # symbolic target for minimal-label corners
    # darts: 2i leaves corner i, 2i+1 arrives at succ[i] (or the point)
    alpha = {}
    for i in range(n):
        alpha[2 * i] = 2 * i + 1
        alpha[2 * i + 1] = 2 * i
    arrivals: Dict[int, List[int]] = {i: [] for i in range(n)}
    star_sources: List[int] = []
    for i in range(n):
        if succ[i] is None:
            star_sources.append(i)
        else:
            arrivals[succ[i]].append(i)

    def corner_fan(p: int) -> List[int]:
        """Arc ends at corner p, ordered by clockwise distance of the far end."""
        # The pointed vertex sits in the unique face adjacent to the
        # forward side of every minimal corner, so its arc comes before
        # all arriving arcs (distance 0).
        ends = [(2 * p, (succ[p] - p) % n if succ[p] is not None else 0)]
        for j in arrivals[p]:
            ends.append((2 * j + 1, (j - p) % n))
        ends.sort(key=lambda e: e[1])
        return [d for d, _ in ends]

    corners_of: Dict[int, List[int]] = {}
    for p, v in enumerate(corners):
        corners_of.setdefault(v, []).append(p)
    sigma: Dict[int, int] = {}
    for v, ps in corners_of.items():
        cycle: List[int] = []
        for p in reversed(ps):  # corners around a vertex: reverse contour order
            cycle.extend(corner_fan(p))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
    star_cycle = [2 * i + 1 for i in star_sources]
    for a, b in zip(star_cycle, star_cycle[1:] + star_cycle[:1]):
        sigma[a] = b
    root_dart = 0 if orientation == 0 else 1
    return Quadrangulation(alpha, sigma, root_dart, star_cycle[0])


# -- inverse bijection ------------------------------------------------------


def _face_edge(q: Quadrangulation, face, lab) -> Tuple[int, int]:
    """The selected tree edge of a face, as its two anchor darts.

    With vertex labels (m, m-1, m, m-1) around the face the selected
    edge joins the two label-m corners; with (m+1, m, m-1, m) it joins
    the first two.  Anchors are the face darts at the edge's endpoints.
    """
    ls = [lab[q.vertex_of(d)] for d in face]
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
    dist = q.distances_from(q.pointed_vertex)
    x0, x1 = q.root_endpoints()
    d_star = max(dist[x0], dist[x1])
    lab = {v: d - d_star for v, d in dist.items()}
    # anchors[v] = {dart at v: (neighbour, neighbour anchor dart)}
    anchors: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for face in q.faces():
        da, db = _face_edge(q, face, lab)
        va, vb = q.vertex_of(da), q.vertex_of(db)
        if va == vb:
            raise IntegrityError("face selected a loop edge")
        anchors.setdefault(va, {})[da] = (vb, db)
        anchors.setdefault(vb, {})[db] = (va, da)
    if q.pointed_vertex in anchors:
        raise IntegrityError("a selected edge touches the pointed vertex")
    # children are read back along the inverse rotation
    step = {b: a for a, b in q.sigma.items()}

    def scan(v: int, start: int, include_start: bool) -> List[Tuple[int, int]]:
        """Tree edges at v in rotation order from ``start``.

        ``start`` is the anchor of the parent edge (excluded) or, at
        the root, the root dart (included if it is an anchor).
        """
        at = anchors.get(v, {})
        found = []
        d = start
        first = True
        while True:
            if (include_start or not first) and d in at:
                found.append(at[d])
            d = step[d]
            first = False
            if d == start:
                return found

    root = x0 if dist[x0] == d_star else x1
    bit = 0 if q.vertex_of(q.root_dart) == root else 1
    if lab[root] != 0:
        raise IntegrityError("root vertex is not labelled 0")
    # Build the plane tree by DFS; a vertex gets its preorder index when
    # it is popped.
    labels: List[int] = []
    parents: List[Optional[int]] = []
    root_based = (
        q.root_dart
        if q.vertex_of(q.root_dart) == root
        else q.alpha[q.root_dart]
    )
    # stack entries: (parent tree index, map vertex, first rotation dart, inclusive)
    stack: List[Tuple[Optional[int], int, int, bool]] = [(None, root, root_based, True)]
    seen = {root}
    while stack:
        parent, v, start, include_start = stack.pop()
        iv = len(labels)
        labels.append(lab[v])
        parents.append(parent)
        entries = []
        for w, w_anchor in scan(v, start, include_start):
            if w in seen:
                raise IntegrityError("selected edges contain a cycle")
            seen.add(w)
            entries.append((iv, w, w_anchor, False))
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
    k_max = max(dist.values())
    at = {d: dist[q.vertex_of(d)] for d in q.darts}
    vertices = [0] * (k_max + 1)
    edges = [0] * (k_max + 1)
    inner = [0] * (k_max + 1)
    for r in dist.values():
        vertices[r] += 1
    for d in q.darts:
        e = q.alpha[d]
        if d < e:
            edges[max(at[d], at[e])] += 1
    for f in q.faces():
        inner[max(at[d] for d in f)] += 1
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
    d_star up; P_k is even throughout.  ``d_star_shift`` perturbs the
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
        if P_k % 2:
            mism.append(f"k={k}: odd perimeter {P_k}")
            continue
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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        root_dart = int(rows[0][1])
        pointed = int(rows[1][1])
        if rows[2] != ["dart", "alpha", "sigma"]:
            raise ValueError("bad column header")
        alpha, sigma = {}, {}
        for row in rows[3:]:
            d, a, s = (int(x) for x in row)
            alpha[d] = a
            sigma[d] = s
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed map CSV {path}: {exc}") from exc
    return Quadrangulation(alpha, sigma, root_dart, pointed)
