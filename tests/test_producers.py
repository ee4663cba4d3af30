"""Outputs of the unchecked tree producers pass the validating constructor.

Samplers, decode, truncate, the excursion decomposition and its inverse,
and the map bijection build their trees with
``LabelledPlaneTree.unchecked``; these properties re-run every invariant
on their outputs, on random, deep and wide trees.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from gwprofile import LabelledPlaneTree, builtin_model, decode, encode, truncate
from gwprofile.errors import ResourceLimitError
from gwprofile.excursion import decompose, reconstruct
from gwprofile.maps import map_to_tree, tree_to_map
from gwprofile.model import BUILTIN_IDS
from gwprofile.sampler import Sampler, SamplerConfig


def assert_valid(t):
    assert LabelledPlaneTree(t.labels, t.parents) == t


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
        for e in d.forest.decorations:
            assert_valid(e.tree)
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
        for sample in (s.sample_tree, lambda: s.sample_excursion(1).tree,
                       lambda: s.sample_excursion(-1).tree):
            try:
                t = sample()
            except ResourceLimitError:
                continue
            assert_valid(t)

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
            for e in d.forest.decorations:
                assert_valid(e.tree)
            assert_valid(reconstruct(d))
            assert_valid(truncate(t, m))
