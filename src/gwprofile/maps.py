"""Rooted pointed quadrangulations, the tree bijection, and ball profiles.

A planar map is stored as a rotation system on darts (half-edges)
numbered 0..n-1: lists ``alpha`` and ``sigma``, indexed by dart, give
the involution pairing the two darts of each edge and the rotation of
darts around each vertex.  Faces are the orbits of sigma o alpha.
Vertices are identified with the smallest dart of their sigma-orbit.

Validation runs where maps come from outside the package: the public
constructors ``PlanarMap(...)`` and ``Quadrangulation(...)`` check every
invariant and raise at construction, and :func:`load_map` (so ``gwprofile
maps --in``) reads through the latter.  :func:`tree_to_map`, and through
it ``Sampler.sample_quadrangulation``, builds its output with
:meth:`Quadrangulation.unchecked`; the tests check its outputs against the
validating constructor.  A map's derived views, its vertex and face
orbits and a quadrangulation's distances from the point, are built on
first use and cached, so :func:`map_to_tree`, :func:`ball_profile` and
:func:`verify_profile_relations` share one breadth-first search per map.

The bijection with labelled trees draws one arc from every contour
corner of the tree to its successor (the next corner, in contour
order, whose label is one less); corners of minimal label connect to
the extra pointed vertex.  Its orientation conventions: arc ends inside
a corner in ascending clockwise distance, the corners of a vertex in
reverse contour order, the arcs around the pointed vertex in contour
order, and children read back along the inverse rotation.  They were
selected by exhaustive search as the unique self-consistent choice and
are locked in place by the round-trip tests - the tests, not any
external authority, validate them.

``tree_to_map`` takes two passes and writes sigma directly.  The first
walks the preorder arrays with a path stack and lists the contour
corners, linking each to the previous corner of its vertex.  The second
visits the corners once, from the first corner of minimal label, and
keeps per label the chain of arcs still waiting for a successor; a
corner of label l takes the whole label-(l + 1) chain as its fan.  Labels
change by at most 1 between consecutive corners, so an arc from label
l > min meets label l - 1 before the scan comes back round to its
minimal start: no second lap is needed, and only the label-(min + 1)
arcs left at the end wrap round to the start corner.  A fan is its
corner p's leaving arc, then the chain in visiting order: ascending
clockwise distance, as the corners strictly between an arriving one and
p are all labelled above p, so p's successor comes before every arriving
corner.

``map_to_tree`` labels vertices by distance from the point and selects
one tree edge per face.  Around a face the labels step by +-1, so they
read (m, m-1, m, m-1), and the edge joins the two tops, or (m+1, m,
m-1, m), and it joins the one top to the next corner.

Ball profiles are counted, not built: one breadth-first search from the
point and Euler's formula give the external faces and perimeters of
every ball (see ``ball_profile``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, IntegrityError
from .tree import LabelledPlaneTree, edge_profile


def _orbits(perm: Sequence[int]) -> Tuple[Tuple[Tuple[int, ...], ...], List[int]]:
    """Cycles of a permutation of 0..n-1, each from its smallest element,
    and for each element the smallest element of its cycle."""
    owner = [-1] * len(perm)
    orbits = []
    for d in range(len(perm)):
        if owner[d] < 0:
            orbit = [d]
            owner[d] = d
            e = perm[d]
            while e != d:
                orbit.append(e)
                owner[e] = d
                e = perm[e]
            orbits.append(tuple(orbit))
    return tuple(orbits), owner


def _is_dart(d, darts: range) -> bool:
    """Whether ``d`` is one of ``darts``: an int (not a bool) in range."""
    return type(d) is int and d in darts


class PlanarMap:
    """Immutable connected planar map given by its rotation system.

    ``alpha`` and ``sigma`` are lists on darts 0..n-1, which the
    constructor checks.  The derived views, the vertex orbits
    (``vertices()``, and ``vertex_of[d]``, the vertex of dart d) and the
    face orbits (``faces()``), are built on first use and cached.
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
        if not {int}.issuperset(map(type, chain(alpha, sigma))):
            raise IntegrityError("alpha and sigma must hold int darts")
        dartset = set(darts)
        if len(sigma) != len(darts) or set(sigma) != dartset:
            raise IntegrityError("sigma is not a permutation of the darts")
        if set(alpha) != dartset or any(
            a == d or alpha[a] != d for d, a in enumerate(alpha)
        ):
            raise IntegrityError("alpha is not a fixed-point-free involution")
        if -1 in self.distances_from(0):  # connectivity under <alpha, sigma>
            raise IntegrityError("map is not connected")
        for d, name in ((root_dart, "root dart"), (pointed_vertex, "pointed vertex")):
            if d is not None and not _is_dart(d, darts):
                raise IntegrityError(f"{name} is not a dart")
        self.root_dart = root_dart
        self.pointed_vertex = (
            None if pointed_vertex is None else self.vertex_of[pointed_vertex]
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _vertex_orbits(self) -> Tuple[Tuple[Tuple[int, ...], ...], List[int]]:
        return _orbits(self.sigma)

    @cached_property
    def _faces(self) -> Tuple[Tuple[int, ...], ...]:
        sigma = self.sigma
        return _orbits([sigma[a] for a in self.alpha])[0]

    @property
    def vertex_of(self) -> List[int]:
        """Per dart, its vertex: the smallest dart of its sigma-orbit."""
        return self._vertex_orbits[1]

    @property
    def n_edges(self) -> int:
        return len(self.darts) // 2

    def vertices(self) -> Tuple[Tuple[int, ...], ...]:
        return self._vertex_orbits[0]

    def faces(self) -> Tuple[Tuple[int, ...], ...]:
        return self._faces

    @property
    def n_vertices(self) -> int:
        return len(self.vertices())

    @property
    def n_faces(self) -> int:
        return len(self._faces)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def distances_from(self, vertex: int) -> List[int]:
        """For each dart, the graph distance from ``vertex`` to its vertex (BFS)."""
        if not _is_dart(vertex, self.darts):
            raise DomainError(f"{vertex!r} is not a dart")
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
    """A rooted pointed map on the sphere in which every face has degree 4.

    The constructor checks what ``PlanarMap``'s does, then the face
    degrees and Euler's formula.  ``tree_to_map`` builds its maps with
    :meth:`unchecked`.
    """

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

    @classmethod
    def unchecked(cls, alpha, sigma, root_dart: int, pointed_vertex: int) -> "Quadrangulation":
        """Construct without validation, keeping the two lists as given.

        For the package's own producers, whose outputs are correct by
        construction and are checked against the validating constructor
        in tests; ``pointed_vertex`` must be the smallest dart of the
        point's sigma-orbit.
        """
        q = cls.__new__(cls)
        q.alpha, q.sigma, q.darts = alpha, sigma, range(len(alpha))
        q.root_dart, q.pointed_vertex = root_dart, pointed_vertex
        return q

    @cached_property
    def _point_distances(self) -> Tuple[List[int], int]:
        """(dist, d_star): each dart's distance from the point, and the
        larger distance of the root edge's two ends."""
        dist = self.distances_from(self.pointed_vertex)
        x0, x1 = self.root_endpoints()
        return dist, max(dist[x0], dist[x1])

    def root_endpoints(self) -> Tuple[int, int]:
        """(origin vertex, head vertex) of the root edge."""
        return (
            self.vertex_of[self.root_dart],
            self.vertex_of[self.alpha[self.root_dart]],
        )


# -- forward bijection ------------------------------------------------------


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
    parents = t.parents
    low = min(t.labels)
    labels = [x - low for x in t.labels]  # shifted to a minimum of 0
    n = 2 * len(labels) - 2
    # Pass 1: corner c has label lab[c]; back[c] is the previous corner of
    # its vertex, cyclically.  A vertex's first corner is the next one made
    # after it joins the path, and gets its link when the last one is made.
    lab = [0] * n
    back = [0] * n
    first = [0] * len(labels)
    latest = [0] * len(labels)
    path = [0]
    c = 0
    for v in range(1, len(labels)):
        p = parents[v]
        u = path[-1]
        while u != p:  # u's last corner
            path.pop()
            lab[c] = labels[u]
            back[c] = latest[u]
            back[first[u]] = latest[u] = c
            c += 1
            u = path[-1]
        lab[c] = labels[p]  # p's corner before its child v
        back[c] = latest[p]
        latest[p] = c
        c += 1
        path.append(v)
        first[v] = latest[v] = c
    for u in reversed(path[1:]):
        lab[c] = labels[u]
        back[c] = latest[u]
        back[first[u]] = latest[u] = c
        c += 1
    back[0] = latest[0]
    # Pass 2: dart 2c leaves corner c and dart 2c + 1 arrives at its
    # successor or the point.  The label-l chain is a sigma path from
    # head[l] to tail[l] (-1 when empty); a fan ends at the leaving dart
    # of the previous corner of its vertex.
    alpha = [d ^ 1 for d in range(2 * n)]
    sigma = [0] * (2 * n)
    head = [0] * (max(labels) + 2)
    tail = [-1] * (max(labels) + 2)
    s = lab.index(0)
    for c in (*range(s, n), *range(s)):
        l = lab[c]
        end = tail[l + 1]
        if end < 0:
            end = 2 * c
        else:
            sigma[2 * c] = head[l + 1]
            tail[l + 1] = -1
        sigma[end] = 2 * back[c]
        end = tail[l]
        if end < 0:
            head[l] = 2 * c + 1
        else:
            sigma[end] = 2 * c + 1
        tail[l] = 2 * c + 1
    # The label-1 corners after the last label-0 corner arrive at s.
    end = tail[1]
    if end >= 0:
        sigma[2 * s] = head[1]
        sigma[end] = 2 * back[s]
    sigma[tail[0]] = head[0]  # around the point, in contour order
    # head[0] = 2s + 1 is the smallest dart around the point: s is the first
    # label-0 corner.
    return Quadrangulation.unchecked(alpha, sigma, orientation, head[0])


# -- inverse bijection ------------------------------------------------------


def map_to_tree(q: Quadrangulation) -> Tuple[LabelledPlaneTree, int]:
    """The labelled tree and orientation bit encoding a quadrangulation.

    Vertex labels are distance-to-the-point minus d_star; each face
    selects one tree edge; the tree root is the root-edge endpoint
    farther from the point, and the bit records whether the root dart
    is based there.
    """
    vertex_of = q.vertex_of
    dist, d_star = q._point_distances
    x0, x1 = q.root_endpoints()
    lab = [d - d_star for d in dist]  # per dart: the label of its vertex
    # partner[d]: the anchor dart at the far end of d's selected edge, or -1
    partner = [-1] * len(dist)
    for a, b, c, d in q.faces():
        la, lb, lc, ld = lab[a], lab[b], lab[c], lab[d]
        # Consecutive face darts sit at adjacent vertices, whose distances
        # differ by at most 1: the labels step by +-1 unless two are equal.
        if la == lb or lb == lc or lc == ld or ld == la:
            raise IntegrityError(
                f"face {(a, b, c, d)} labels {[la, lb, lc, ld]} are not bipartite"
            )
        # Steps of +-1 make la == lc or lb == ld: two opposite tops, or one
        # top and its edge to the next dart.  No other shape (adjacent
        # tops, three tops) passes the check above, so none needs an error.
        if la == lc:
            if lb == ld:
                da, db = (a, c) if la > lb else (b, d)
            else:
                da, db = (b, c) if lb > ld else (d, a)
        else:
            da, db = (a, b) if la > lc else (c, d)
        if vertex_of[da] == vertex_of[db]:
            raise IntegrityError("face selected a loop edge")
        if not (dist[da] and dist[db]):
            raise IntegrityError("a selected edge touches the pointed vertex")
        partner[da] = db
        partner[db] = da
    root = x0 if dist[x0] == d_star else x1
    bit = 0 if x0 == root else 1
    if lab[root] != 0:
        raise IntegrityError("root vertex is not labelled 0")
    # Build the plane tree by DFS; a vertex gets its preorder index when
    # it is popped, and its children are read back along the inverse
    # rotation from its first dart.
    sigma = q.sigma
    labels: List[int] = []
    parents: List[Optional[int]] = []
    root_based = q.root_dart if bit == 0 else q.alpha[q.root_dart]
    # stack entries: (parent tree index, first rotation dart).  The first
    # dart is the anchor of the parent edge (skipped) or, at the root, the
    # root dart (kept if it is an anchor).
    stack: List[Tuple[Optional[int], int]] = [(None, root_based)]
    seen = bytearray(len(dist))
    seen[root] = 1
    while stack:
        parent, start = stack.pop()
        iv = len(labels)
        labels.append(lab[start])
        parents.append(parent)
        skip = -1 if parent is None else start
        # Push the tree edges in rotation order from sigma[start] round to
        # start, so that they pop in inverse rotation order from start.
        d = start
        while True:
            d = sigma[d]
            e = partner[d]
            if e >= 0 and d != skip:
                w = vertex_of[e]
                if seen[w]:
                    raise IntegrityError("selected edges contain a cycle")
                seen[w] = 1
                stack.append((iv, e))
            if d == start:
                break
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
    dist, d_star = q._point_distances
    k_max = max(dist)
    vertices = [0] * (k_max + 1)
    edges = [0] * (k_max + 1)
    inner = [0] * (k_max + 1)
    for orbit in q.vertices():
        vertices[dist[orbit[0]]] += 1
    for d, e in enumerate(q.alpha):
        if d < e:
            edges[max(dist[d], dist[e])] += 1
    for a, b, c, d in q.faces():  # every face has 4 darts
        inner[max(dist[a], dist[b], dist[c], dist[d])] += 1
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


def verify_profile_relations(q: Quadrangulation):
    """Compare the ball profile with the tree-side edge profile.

    The tree's labels are distances from the point less d_star, so the
    edges between distances k and k + 1 have upper label u = k - d_star + 1
    (u <= 0 below d_star), and for every radius k:

        C_k = up[u] + [u <= 0],    P_k = 2 (up[u] + down[u]).

    P_k is even throughout, since ``ball_profile`` computes it as
    2 E_k - 4 I_k.
    """
    summary = ball_profile(q)
    t, _ = map_to_tree(q)
    prof = edge_profile(t)
    d_star = summary.d_star
    mism = []
    for k in range(1, summary.k_max + 1):
        P_k, C_k = summary.P[k - 1], summary.C[k - 1]
        u = k - d_star + 1
        up, down = prof.up.get(u, 0), prof.down.get(u, 0)
        if C_k != up + (u <= 0):
            mism.append(f"k={k}: C={C_k} but up({u})+[{u}<=0]={up + (u <= 0)}")
        if P_k != 2 * (up + down):
            mism.append(f"k={k}: P={P_k} but 2(up+down)({u})={2 * (up + down)}")
    return ProfileReport(summary.k_max, tuple(mism))


# -- counting ---------------------------------------------------------------


def card_pointed_quadrangulations(n: int) -> int:
    """Number of rooted pointed quadrangulations with n faces.

    Under this artifact's counting convention (tree bijection side):
    2 * 3^n * Catalan(n) - each map is (labelled tree, orientation bit)
    with 3^n Catalan(n) labelled trees of n edges.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    catalan = math.comb(2 * n, n) // (n + 1)
    return 2 * 3**n * catalan


# -- serialization ----------------------------------------------------------


def save_map(q: PlanarMap, path: str) -> None:
    """Write ``q`` to the file at ``path`` as :func:`write_map` does."""
    with open(path, "w", newline="") as fh:
        write_map(q, fh)


def write_map(q: PlanarMap, fh) -> None:
    """Per-dart CSV (dart, alpha, sigma) with a root/point header, to an
    open text file; rows end in CRLF, as ``csv.writer`` writes them."""
    w = csv.writer(fh)
    w.writerow(["root_dart", q.root_dart if q.root_dart is not None else ""])
    w.writerow(["pointed_vertex", q.pointed_vertex if q.pointed_vertex is not None else ""])
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
