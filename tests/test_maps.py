import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from gwprofile import LabelledPlaneTree, builtin_model, decode, maps
from gwprofile.errors import DomainError, IntegrityError
from gwprofile.maps import (
    PlanarMap,
    Quadrangulation,
    ball_profile,
    card_pointed_quadrangulations,
    load_map,
    map_to_tree,
    save_map,
    tree_to_map,
    verify_profile_relations,
)
from gwprofile.oracle import enumerate_trees
from gwprofile.sampler import Sampler, SamplerConfig
from test_producers import preorder_trees

MODEL = builtin_model("geom-pm01")


def all_trees(max_edges):
    for e in range(1, max_edges + 1):
        for t, _ in enumerate_trees(MODEL, e).items:
            yield t


# A one-vertex map on the torus whose single face has degree 4.
TORUS = dict(alpha=[1, 0, 3, 2], sigma=[2, 3, 1, 0])


class TestPlanarMap:
    def test_single_edge(self):
        m = PlanarMap(alpha=[1, 0], sigma=[0, 1])
        assert m.n_edges == 1 and m.n_vertices == 2 and m.n_faces == 1
        assert m.euler_characteristic() == 2

    def test_alpha_must_be_involution(self):
        with pytest.raises(IntegrityError):
            PlanarMap(alpha=[0, 1], sigma=[1, 0])

    def test_connectivity_required(self):
        with pytest.raises(IntegrityError, match="map is not connected"):
            PlanarMap(alpha=[1, 0, 3, 2], sigma=[0, 1, 2, 3])

    def test_point_must_be_a_dart(self):
        with pytest.raises(IntegrityError, match="pointed vertex is not a dart"):
            Quadrangulation(**TORUS, root_dart=0, pointed_vertex=99)

    @pytest.mark.parametrize("dart", [1.0, "1", True])
    def test_darts_must_be_ints(self, dart):
        # 1.0 == 1 and True == 1 are in range(2), but neither is a dart
        with pytest.raises(IntegrityError, match="root dart is not a dart"):
            PlanarMap([1, 0], [0, 1], root_dart=dart)
        with pytest.raises(IntegrityError, match="pointed vertex is not a dart"):
            PlanarMap([1, 0], [0, 1], pointed_vertex=dart)
        # the same for the entries of both permutations
        with pytest.raises(IntegrityError, match="alpha and sigma must hold int darts"):
            PlanarMap([dart, 0], [0, 1])
        with pytest.raises(IntegrityError, match="alpha and sigma must hold int darts"):
            PlanarMap([1, 0], [0, dart])
        m = PlanarMap([1, 0], [0, 1], root_dart=1, pointed_vertex=1)
        assert (m.root_dart, m.pointed_vertex) == (1, 1)

    def test_distances_from_needs_a_dart(self):
        # -1 would wrap round to the last dart's vertex; len(darts) is past it
        q = tree_to_map(decode("0(+()-())"), 0)
        for vertex in (-1, len(q.darts), 1.0, True, None):
            with pytest.raises(DomainError, match="is not a dart"):
                q.distances_from(vertex)
        assert q.distances_from(q.pointed_vertex)[q.pointed_vertex] == 0

    def test_quadrangulation_rejects_torus(self):
        # one vertex, two edges and one degree-4 face: Euler characteristic 0
        assert PlanarMap(**TORUS).euler_characteristic() == 0
        with pytest.raises(IntegrityError):
            Quadrangulation(**TORUS, root_dart=0, pointed_vertex=0)

    def test_quadrangulation_rejects_wrong_faces(self):
        # a single edge has one face of degree 2
        with pytest.raises(IntegrityError):
            Quadrangulation(
                alpha=[1, 0],
                sigma=[0, 1],
                root_dart=0,
                pointed_vertex=1,
            )


class TestBijection:
    def test_roundtrip_exhaustive(self):
        for t in all_trees(4):
            for bit in (0, 1):
                q = tree_to_map(t, bit)
                assert q.n_faces == t.n_edges
                assert q.n_vertices == t.n_vertices + 1
                assert map_to_tree(q) == (t, bit)

    def test_distinctness_counts(self):
        # distinct pointed rooted quadrangulations with n faces: 2 * 3^n * Cat(n)
        for n in (1, 2, 3):
            seen = set()
            for t, _ in enumerate_trees(MODEL, n).items:
                for bit in (0, 1):
                    q = tree_to_map(t, bit)
                    seen.add(_canonical_key(q))
            assert len(seen) == card_pointed_quadrangulations(n)

    def test_rejects_edgeless_tree(self):
        with pytest.raises(DomainError):
            tree_to_map(decode("0()"), 0)

    def test_rejects_bad_orientation(self):
        with pytest.raises(DomainError):
            tree_to_map(decode("0(+())"), 2)

    def test_reads_tree_in_preorder(self):
        # Breadth-first and preorder numbering differ on this tree: the
        # vertex labelled 2 comes second in preorder, fourth breadth-first.
        t = decode("0(+(+())-())")
        back, bit = map_to_tree(tree_to_map(t, 1))
        assert bit == 1
        assert back.labels == (0, 1, 2, -1)
        assert back.parents == (None, 0, 1, 0)

    def test_sampled_roundtrip(self):
        s = Sampler(MODEL, SamplerConfig(seed=11, vertex_cap=2000))
        for _ in range(60):
            q = s.sample_quadrangulation()
            t, bit = map_to_tree(q)
            q2 = tree_to_map(t, bit)
            assert q2.alpha == q.alpha and q2.sigma == q.sigma
            assert q2.root_dart == q.root_dart
            assert q2.pointed_vertex == q.pointed_vertex


def reference_tree_to_map(t, orientation):
    """(alpha, sigma, root dart, pointed vertex) of ``tree_to_map(t, orientation)``,
    built from the definition.

    The contour corners are listed from the root corner; a corner's
    successor is the next corner, cyclically, with label - 1, found by
    scanning the corners twice.  Dart 2i leaves corner i and dart 2i + 1
    arrives at its successor, or at the point when the corner's label is
    minimal.  The darts at a corner are its leaving dart, then the darts
    arriving from the corners after it in cyclic order; the corners of a
    vertex are taken in reverse contour order, and the point's darts in
    contour order.
    """
    corners = []
    stack = [(0, 0)]  # (vertex, next child index)
    while stack:
        v, i = stack.pop()
        kids = t.children[v]
        if i < len(kids):
            corners.append(v)
            stack.append((v, i + 1))
            stack.append((kids[i], 0))
        elif v != 0:
            corners.append(v)
    labels = [t.labels[v] for v in corners]
    n = len(corners)
    succ = [None] * n
    waiting = {}
    for j in list(range(n)) * 2:
        for i in waiting.pop(labels[j] + 1, ()):
            if succ[i] is None:
                succ[i] = j
        waiting.setdefault(labels[j], []).append(j)
    fans = [[2 * p] for p in range(n)]
    for i, s in enumerate(succ):  # first the arcs from i > s, which wrap round
        if s is not None and s < i:
            fans[s].append(2 * i + 1)
    star = []
    for i, s in enumerate(succ):  # then the arcs from i < s
        if s is None:
            star.append(2 * i + 1)
        elif s > i:
            fans[s].append(2 * i + 1)
    corners_of = [[] for _ in range(t.n_vertices)]
    for p, v in enumerate(corners):
        corners_of[v].append(p)
    sigma = [0] * (2 * n)
    cycles = [[d for p in reversed(ps) for d in fans[p]] for ps in corners_of]
    for cycle in cycles + [star]:
        for i, d in enumerate(cycle):
            sigma[cycle[i - 1]] = d
    alpha = [d ^ 1 for d in range(2 * n)]
    return alpha, sigma, orientation, min(star)


def assert_matches_reference(t, bit, q=None):
    q = tree_to_map(t, bit) if q is None else q
    got = (q.alpha, q.sigma, q.root_dart, q.pointed_vertex)
    assert got == reference_tree_to_map(t, bit)


class TestConstruction:
    """``tree_to_map`` builds the map of its definition, dart for dart."""

    def test_exhaustive(self):
        for t in all_trees(6):
            alpha, sigma, _, point = reference_tree_to_map(t, 0)
            for bit in (0, 1):
                q = tree_to_map(t, bit)
                assert (q.alpha, q.sigma, q.root_dart, q.pointed_vertex) == (
                    alpha, sigma, bit, point)

    @given(preorder_trees(), st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_paths_stars_zigzags(self, t, bit):
        assume(t.n_edges >= 1)
        assert_matches_reference(t, bit)

    def test_sampled(self):
        s = Sampler(MODEL, SamplerConfig(seed=2026, vertex_cap=2000))
        for _ in range(200):
            q = s.sample_quadrangulation()
            assert_matches_reference(*map_to_tree(q), q)

    @pytest.mark.parametrize("shape", ["path", "star", "zigzag"])
    def test_deep_and_wide(self, shape):
        # 10^5 vertices: a path climbing one level per edge, a star whose
        # leaves cycle through -1, 0, 1, and a path alternating 0, 1.
        n = 10**5
        labels = {
            "path": list(range(n)),
            "star": [0] + [v % 3 - 1 for v in range(1, n)],
            "zigzag": [v % 2 for v in range(n)],
        }[shape]
        parents = [None] + ([0] * (n - 1) if shape == "star" else list(range(n - 1)))
        t = LabelledPlaneTree(labels, parents)
        for bit in (0, 1):
            assert map_to_tree(tree_to_map(t, bit)) == (t, bit)


def _canonical_key(q):
    order = {}
    queue = [q.root_dart]
    while queue:
        d = queue.pop(0)
        if d in order:
            continue
        order[d] = len(order)
        queue.append(q.alpha[d])
        queue.append(q.sigma[d])
    darts = sorted(order, key=order.get)
    point = min(order[d] for d in q.darts if q.vertex_of[d] == q.pointed_vertex)
    return (
        tuple(order[q.alpha[d]] for d in darts),
        tuple(order[q.sigma[d]] for d in darts),
        point,
    )


def reference_ball_profile(q):
    """(P, C) by definition: build each radius-k ball as a submap.

    The ball keeps the edges whose two endpoints are within k of the
    point; its external faces are its faces whose dart cycle is not a
    face of ``q``.  The submap's darts are renumbered 0..k-1 in the
    order of ``q``'s, and its faces are mapped back to ``q``'s darts.
    """

    def rotations(face):
        i = face.index(min(face))
        return tuple(face[i:]) + tuple(face[:i])

    dist = q.distances_from(q.pointed_vertex)
    originals = {rotations(f) for f in q.faces()}
    P, C = [], []
    for k in range(1, max(dist) + 1):
        keep = [d for d in q.darts if dist[d] <= k and dist[q.alpha[d]] <= k]
        index = {d: i for i, d in enumerate(keep)}
        sigma = []
        for d in keep:
            e = q.sigma[d]
            while e not in index:
                e = q.sigma[e]
            sigma.append(index[e])
        sub = PlanarMap([index[q.alpha[d]] for d in keep], sigma)
        faces = [tuple(keep[i] for i in f) for f in sub.faces()]
        external = [f for f in faces if rotations(f) not in originals]
        C.append(len(external))
        P.append(sum(len(f) for f in external))
    return tuple(P), tuple(C)


class TestBalls:
    def test_counting_matches_submaps_exhaustive(self):
        for t in all_trees(5):
            for bit in (0, 1):
                q = tree_to_map(t, bit)
                summary = ball_profile(q)
                assert (summary.P, summary.C) == reference_ball_profile(q)

    def test_counting_matches_submaps_sampled(self):
        s = Sampler(MODEL, SamplerConfig(seed=2026, vertex_cap=2000))
        for _ in range(100):
            q = s.sample_quadrangulation()
            summary = ball_profile(q)
            assert (summary.P, summary.C) == reference_ball_profile(q)

    def test_radius_covers_map(self):
        q = tree_to_map(decode("0(+(+())-())"), 0)
        summary = ball_profile(q)
        assert summary.k_max == len(summary.P) == len(summary.C)
        assert summary.C[-1] == 0 and summary.P[-1] == 0

    def test_profile_relations_hold(self):
        for t in all_trees(3):
            for bit in (0, 1):
                rep = verify_profile_relations(tree_to_map(t, bit))
                assert rep.ok, rep.mismatches

    def test_negative_control(self, monkeypatch):
        # Misalign the two profiles by one radius: every map is flagged.
        real = maps.ball_profile

        def shifted(q):
            s = real(q)
            return dataclasses.replace(s, d_star=s.d_star + 1)

        monkeypatch.setattr(maps, "ball_profile", shifted)
        flagged = 0
        total = 0
        for t in all_trees(3):
            for bit in (0, 1):
                total += 1
                rep = verify_profile_relations(tree_to_map(t, bit))
                flagged += 0 if rep.ok else 1
        assert flagged == total

    def test_perimeters_even(self):
        for t in all_trees(3):
            summary = ball_profile(tree_to_map(t, 0))
            assert all(p % 2 == 0 for p in summary.P)


class TestCounting:
    def test_card_formula(self):
        for n in range(1, 6):
            cat = math.comb(2 * n, n) // (n + 1)
            assert card_pointed_quadrangulations(n) == 2 * 3**n * cat

class TestCSV:
    def test_roundtrip(self, tmp_path):
        q = tree_to_map(decode("0(-(0()+()))"), 1)
        path = str(tmp_path / "map.csv")
        save_map(q, path)
        q2 = load_map(path)
        assert q2.alpha == q.alpha and q2.sigma == q.sigma
        assert q2.root_dart == q.root_dart
        assert q2.pointed_vertex == q.pointed_vertex

    def test_roundtrip_every_root(self, tmp_path):
        # A bool root dart would be saved as "True", which load_map refuses,
        # so the constructor refuses it; every int root dart round-trips.
        q = tree_to_map(decode("0(-(0()+()))"), 1)
        with pytest.raises(IntegrityError, match="root dart is not a dart"):
            Quadrangulation(q.alpha, q.sigma, True, q.pointed_vertex)
        path = str(tmp_path / "map.csv")
        for root in q.darts:
            save_map(Quadrangulation(q.alpha, q.sigma, root, q.pointed_vertex), path)
            q2 = load_map(path)
            assert (q2.alpha, q2.sigma) == (q.alpha, q.sigma)
            assert (q2.root_dart, q2.pointed_vertex) == (root, q.pointed_vertex)

    def test_rejects_torus(self, tmp_path):
        path = str(tmp_path / "torus.csv")
        save_map(PlanarMap(**TORUS, root_dart=0, pointed_vertex=0), path)
        with pytest.raises(IntegrityError):
            load_map(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n")
        with pytest.raises(DomainError):
            load_map(str(path))

    def test_repeated_dart(self, tmp_path):
        # Dart 3 listed twice, with different sigma: no row silently wins.
        q = tree_to_map(decode("0(-(0()+()))"), 1)
        path = tmp_path / "map.csv"
        save_map(q, str(path))
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows + [f"3,{q.alpha[3]},{q.sigma[2]}"]) + "\n")
        with pytest.raises(DomainError, match="dart 3 is listed twice"):
            load_map(str(path))

    def test_ids_are_renumbered_in_sorted_order(self, tmp_path):
        # Dart ids 10, 20, ... read as 0, 1, ...: the same map.
        q = tree_to_map(decode("0(-(0()+()))"), 1)
        path = tmp_path / "map.csv"
        rows = [f"root_dart,{10 * q.root_dart + 10}",
                f"pointed_vertex,{10 * q.pointed_vertex + 10}", "dart,alpha,sigma"]
        rows += [f"{10 * d + 10},{10 * q.alpha[d] + 10},{10 * q.sigma[d] + 10}"
                 for d in reversed(q.darts)]
        path.write_text("\n".join(rows) + "\n")
        q2 = load_map(str(path))
        assert (q2.alpha, q2.sigma) == (q.alpha, q.sigma)
        assert (q2.root_dart, q2.pointed_vertex) == (q.root_dart, q.pointed_vertex)
