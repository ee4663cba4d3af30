import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwprofile import LabelledPlaneTree, builtin_model, decode, encode, tree_weight
from gwprofile.errors import DomainError, ReconstructionError
from gwprofile.excursion import (
    ExcursionDecomposition,
    ExcursionForest,
    decompose,
    decomposition_weight,
    reconstruct,
    root_component_weight,
)
from gwprofile.oracle import enumerate_trees
from gwprofile.sampler import Sampler, SamplerConfig

from test_tree import random_trees


def reflect(t):
    """t with every label negated, through the validating constructor."""
    return LabelledPlaneTree([-l for l in t.labels], t.parents)


class TestDecompose:
    def test_two_leaf_children(self):
        # root 0 with two leaf children labelled 1, decomposed at m = 1
        d = decompose(decode("0(+()+())"), 1)
        assert len(d.forest.roots) == 2
        for r in d.forest.roots:
            assert d.forest.decorations[r] == decode("1()")

    def test_path_example(self):
        # 0 -> 1 -> 2 at m = 1: one root decoration with one zero-leaf,
        # carrying one child whose decoration is a single vertex
        d = decompose(decode("0(+(+()))"), 1)
        assert len(d.forest.roots) == 1
        r = d.forest.roots[0]
        assert d.forest.decorations[r].labels.count(0) == len(d.forest.children[r])

    def test_negative_level(self):
        d = decompose(decode("0(-()-())"), -1)
        assert len(d.forest.roots) == 2
        for r in d.forest.roots:
            assert d.forest.decorations[r].labels[0] == -1

    @given(random_trees(root_label=0), st.sampled_from([1, 2, -1, -2]))
    @settings(max_examples=50)
    def test_negative_level_is_the_reflected_cut(self, t, m):
        # Reflecting the labels maps the cut at m onto the cut at -m: every
        # piece is reflected and the forest is the same.
        d, r = decompose(t, m), decompose(reflect(t), -m)
        assert r.level == -m
        assert r.root_component == reflect(d.root_component)
        assert list(r.forest.decorations) == [reflect(e) for e in d.forest.decorations]
        assert (r.forest.roots, r.forest.children) == (d.forest.roots, d.forest.children)

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            decompose(decode("0(+())"), 0)

    def test_admissibility_enforced(self):
        d = decompose(decode("0(+(-()))"), 1)
        forged_forest = dataclasses.replace(
            d.forest, children=((),) * len(d.forest.children)
        )
        forged = dataclasses.replace(d, forest=forged_forest)
        with pytest.raises((DomainError, ReconstructionError)):
            reconstruct(forged)

    def test_forest_must_be_a_tree_from_the_roots(self):
        # 0(+(-(+()))) at level 1: the forest is the path 0 -> 1 -> 2.
        d = decompose(decode("0(+(-(+())))"), 1)
        f = d.forest
        assert (f.roots, f.children) == ((0,), ((1,), (2,), ()))
        # An extra excursion that nothing attaches.
        unreached = dataclasses.replace(
            f,
            children=f.children + ((),),
            decorations=f.decorations + (f.decorations[2],),
        )
        # Vertex 2, given a port leaf, attaches vertex 1 again: a cycle.
        cycle = dataclasses.replace(
            f,
            children=((1,), (2,), (1,)),
            decorations=f.decorations[:2] + (f.decorations[0],),
        )
        for forest in (unreached, cycle):
            with pytest.raises(ReconstructionError):
                reconstruct(dataclasses.replace(d, forest=forest))

    @pytest.mark.parametrize(
        "tree, m, good, bad",
        [
            # In place of the root decoration: the wrong sign, root 0,
            # root +-2, and n = 1 label-0 leaf with no forest child.
            ("0(+())", 1, "1()", ["-1()", "0()", "2()", "-2()", "1(-())"]),
            ("0(-())", -1, "-1()", ["1()", "0()", "-2()", "2()", "-1(+())"]),
            # n = 1 as the one forest child asks, but the label-0 vertex is
            # inner (and the label below it leaves the root's sign).
            ("0(+(-()))", 1, "1(-())", ["1(-(+()))", "1(-(-()))"]),
            ("0(-(+()))", -1, "-1(+())", ["-1(+(-()))", "-1(+(+()))"]),
        ],
    )
    def test_forest_signs_and_leaf_counts_are_checked(self, tree, m, good, bad):
        # Decorations are plain trees; reconstruct is what checks them.
        d = decompose(decode(tree), m)
        (root,) = d.forest.roots
        assert encode(d.forest.decorations[root]) == good
        for text in bad:
            decorations = list(d.forest.decorations)
            decorations[root] = decode(text)
            forest = dataclasses.replace(d.forest, decorations=tuple(decorations))
            with pytest.raises(ReconstructionError):
                reconstruct(dataclasses.replace(d, forest=forest))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "model_id", ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]
    )
    def test_exhaustive_small(self, model_id):
        model = builtin_model(model_id)
        for e in range(0, 4):
            for t, _ in enumerate_trees(model, e).items:
                span = max([abs(l) for l in t.labels] + [1])
                for m in list(range(1, span + 1)) + list(range(-span, 0)):
                    assert reconstruct(decompose(t, m)) == t, (encode(t), m)

    @given(random_trees(root_label=0), st.sampled_from([1, 2, -1, -2]))
    @settings(max_examples=150)
    def test_random_trees(self, t, m):
        assert reconstruct(decompose(t, m)) == t

    def test_sampled(self):
        s = Sampler(builtin_model("geom-pm01"), SamplerConfig(seed=5))
        for _ in range(150):
            t = s.sample_tree()
            for m in (1, -1, 2):
                assert reconstruct(decompose(t, m)) == t


class TestWeights:
    @pytest.mark.parametrize("model_id", ["geom-pm1", "incomplete-binary"])
    def test_weight_preserved(self, model_id):
        # the decomposition's weight factorization multiplies back to Pi_0
        model = builtin_model(model_id)
        for e in range(0, 4):
            for t, _ in enumerate_trees(model, e).items:
                for m in (1, -1):
                    d = decompose(t, m)
                    assert decomposition_weight(model, d) == tree_weight(model, t)

    def test_root_component_weight_factor(self):
        model = builtin_model("geom-pm1")
        t = decode("0(+()-())")
        d = decompose(t, 1)
        w = root_component_weight(model, d.root_component, 1)
        assert 0 < w < 1 and isinstance(w, Fraction)
