"""Outputs of the unchecked tree producers pass the validating constructor.

Samplers, decode, truncate, the excursion decomposition and its inverse,
and the map bijection build their trees with
``LabelledPlaneTree.unchecked``; these properties re-run every invariant
on their outputs, on random, deep and wide trees.  The excursions that
the decomposition and the sampler produce are not re-checked there
either, so these properties also run ``is_excursion`` on them.
``tree_to_map`` builds its maps with ``Quadrangulation.unchecked``, so
its outputs are rebuilt through the validating constructor too.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from gwprofile import LabelledPlaneTree, builtin_model, decode, encode, truncate
from gwprofile.errors import ResourceLimitError
from gwprofile.excursion import decompose, reconstruct
from gwprofile.maps import Quadrangulation, map_to_tree, tree_to_map
from gwprofile.model import BUILTIN_IDS, is_excursion
from gwprofile.oracle import enumerate_trees
from gwprofile.sampler import Sampler, SamplerConfig


def assert_valid(t):
    assert LabelledPlaneTree(t.labels, t.parents) == t


def assert_valid_decorations(d):
    """Each decoration of d is a valid tree and an excursion of the sign
    its forest depth gives: the level's sign at the roots, alternating
    below."""
    forest = d.forest
    stack = [(r, 1 if d.level > 0 else -1) for r in forest.roots]
    seen = 0
    while stack:
        v, sign = stack.pop()
        e = forest.decorations[v]
        assert_valid(e)
        assert is_excursion(e) == sign
        stack.extend((c, -sign) for c in forest.children[v])
        seen += 1
    assert seen == forest.n_vertices


def assert_valid_map(q):
    """``q`` passes the validating constructor, whose views equal the ones
    ``q`` builds on first use."""
    checked = Quadrangulation(q.alpha, q.sigma, q.root_dart, q.pointed_vertex)
    assert checked.pointed_vertex == q.pointed_vertex
    assert checked.vertices() == q.vertices()
    assert checked.vertex_of == q.vertex_of
    assert checked.faces() == q.faces()
    assert checked._point_distances == q._point_distances


@st.composite
def preorder_trees(draw, max_vertices=3000):
    """A tree rooted at label 0, grown in preorder.

    Before each new vertex the path back to the root is cut short with
    probability ``backtrack`` per step: 0 gives a path, 1 a star, values in
    between random shapes.  ``zigzag`` alternates the increments +1, -1 so
    that every edge crosses level 1/2.
    """
    n = draw(st.integers(1, max_vertices))
    backtrack = draw(st.sampled_from([0.0, 0.02, 0.3, 0.7, 1.0]))
    zigzag = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    labels, parents, path = [0], [None], [0]
    for v in range(1, n):
        while len(path) > 1 and rnd.random() < backtrack:
            path.pop()
        p = path[-1]
        inc = (1 if labels[p] <= 0 else -1) if zigzag else rnd.choice((-1, 0, 1))
        labels.append(labels[p] + inc)
        parents.append(p)
        path.append(v)
    return LabelledPlaneTree.unchecked(labels, parents)


class TestTreeProducers:
    @given(preorder_trees(), st.integers(-2, 4))
    @settings(max_examples=40, deadline=None)
    def test_decode_truncate(self, t, level):
        assert_valid(t)  # the strategy's own output
        assert_valid(decode(encode(t)))
        assert_valid(truncate(t, level))

    @given(preorder_trees(), st.sampled_from([1, 2, -1, -2]))
    @settings(max_examples=40, deadline=None)
    def test_decompose_reconstruct(self, t, m):
        d = decompose(t, m)
        assert_valid(d.root_component)
        assert_valid_decorations(d)
        back = reconstruct(d)
        assert_valid(back)
        assert back == t

    @given(preorder_trees(max_vertices=300), st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_map_to_tree(self, t, bit):
        assume(t.n_edges >= 1)
        back, back_bit = map_to_tree(tree_to_map(t, bit))
        assert_valid(back)
        assert (back, back_bit) == (t, bit)


class TestSamplerProducers:
    @given(st.sampled_from(BUILTIN_IDS), st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trees_and_excursions(self, model_id, seed):
        config = SamplerConfig(seed=seed, vertex_cap=20_000)
        s = Sampler(builtin_model(model_id), config)
        for sign in (0, 1, -1):  # a tree, then an excursion of each sign
            try:
                t = s.sample_excursion(sign) if sign else s.sample_tree()
            except ResourceLimitError:
                continue
            assert_valid(t)
            if sign:
                assert is_excursion(t) == sign

    def test_sampled_pipeline(self):
        # Sampled trees through every producer, including the large ones the
        # heavy-tailed size law yields (about 2.5 * 10^5 vertices in all).
        config = SamplerConfig(seed=99, vertex_cap=50_000)
        s = Sampler(builtin_model("geom-pm1"), config)
        rnd = random.Random(99)
        for _ in range(2000):
            try:
                t = s.sample_tree()
            except ResourceLimitError:
                continue
            assert_valid(t)
            m = rnd.choice((1, 2, -1, -2))
            d = decompose(t, m)
            assert_valid(d.root_component)
            assert_valid_decorations(d)
            assert_valid(reconstruct(d))
            assert_valid(truncate(t, m))


class TestMapProducers:
    def test_every_small_tree(self):
        # <= 5 edges: up to 6 would take about 17 s on a shared 2-core host.
        model = builtin_model("geom-pm01")
        for e in range(1, 6):
            for t, _ in enumerate_trees(model, e).items:
                for bit in (0, 1):
                    assert_valid_map(tree_to_map(t, bit))

    @given(preorder_trees(max_vertices=300), st.sampled_from([0, 1]))
    @settings(max_examples=30, deadline=None)
    def test_preorder_trees(self, t, bit):
        assume(t.n_edges >= 1)
        assert_valid_map(tree_to_map(t, bit))

    def test_sampled(self):
        s = Sampler(builtin_model("geom-pm01"), SamplerConfig(seed=25, vertex_cap=2000))
        for _ in range(200):
            assert_valid_map(s.sample_quadrangulation())
