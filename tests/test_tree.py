from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from gwprofile import (
    DomainError,
    LabelledPlaneTree,
    TreeParseError,
    builtin_model,
    decode,
    edge_profile,
    encode,
    truncate,
)
from gwprofile.errors import ResourceLimitError
from gwprofile.model import BUILTIN_IDS
from gwprofile.oracle import enumerate_trees
from gwprofile.sampler import Sampler, SamplerConfig


def nested_trees(max_children=3):
    inc = st.sampled_from([-1, 0, 1])

    def level(children):
        return st.lists(
            st.tuples(inc, children), min_size=0, max_size=max_children
        ).map(tuple)

    return st.recursive(st.just(()), level, max_leaves=12)


@st.composite
def random_trees(draw, root_label=None):
    root = root_label if root_label is not None else draw(st.integers(-3, 3))
    nested = draw(nested_trees())
    return LabelledPlaneTree.from_nested(root, nested)


class TestConstruction:
    def test_single(self):
        t = LabelledPlaneTree((5,), (None,))
        assert t.n_vertices == 1 and t.n_edges == 0 and t.root_label == 5

    def test_from_nested(self):
        t = LabelledPlaneTree.from_nested(0, (((1, ()), (-1, ((0, ()),)))))
        assert t.n_edges == 3
        assert sorted(t.labels) == [-1, -1, 0, 1]

    def test_label_jump_rejected(self):
        with pytest.raises((DomainError, Exception)):
            LabelledPlaneTree([0, 2], [None, 0])

    def test_orphan_rejected(self):
        with pytest.raises(Exception):
            LabelledPlaneTree([0, 1], [None, None])

    @pytest.mark.parametrize("labels", [[True, 1], [0, 1.0]])
    def test_labels_must_be_ints(self, labels):
        # Both pass the label-step check, as True == 1 and 1.0 == 1, but
        # encode writes 'True(0())' for the first, which decode refuses.
        with pytest.raises(DomainError, match="labels must be ints"):
            LabelledPlaneTree(labels, [None, 0])
        assert LabelledPlaneTree.unchecked(labels, [None, 0]).labels == tuple(labels)

    @pytest.mark.parametrize(
        "labels, parents",
        [
            ([0, 1, 0, 1], [None, 0, 0, 1]),  # vertex 3's parent left the path
            ([0, 1, 0], [None, 2, 0]),  # a parent after its child
            ([0, 1, 0], [None, 0, None]),  # a second root
            ([0, 1], [None, 0, 0]),  # more parents than labels
            ([0, 1, 0], [None, 0]),  # fewer parents than labels
        ],
    )
    def test_not_a_preorder_tree(self, labels, parents):
        with pytest.raises(DomainError):
            LabelledPlaneTree(labels, parents)


class TestGrammar:
    def test_example(self):
        t = decode("0(+(-()))")
        assert t.labels == (0, 1, 0)
        assert encode(t) == "0(+(-()))"

    def test_negative_root(self):
        t = decode("-2(+()+())")
        assert t.root_label == -2 and t.n_edges == 2

    def test_malformed(self):
        for bad in ["", "0(", "0()x", "0(*())", "()", "0(+()"]:
            with pytest.raises(TreeParseError):
                decode(bad)

    @given(random_trees())
    def test_roundtrip(self, t):
        assert decode(encode(t)) == t

    def test_error_offsets(self):
        for bad, offset in [("0", 1), ("0(+)", 3), ("0(+()", 5), ("0(x)", 2), ("0()(", 3)]:
            with pytest.raises(TreeParseError) as exc:
                decode(bad)
            assert exc.value.offset == offset, bad


def decodes_or_rejects(text):
    """decode parses ``text`` into a tree that encode gives back, up to the
    spelling of the root label, or raises TreeParseError at an offset
    inside the text or at its end.  Anything else escapes and fails."""
    try:
        t = decode(text)
    except TreeParseError as exc:
        assert 0 <= exc.offset <= len(text)
        return None
    head, rest = text.split("(", 1)
    assert encode(t) == f"{int(head)}({rest}"
    assert decode(encode(t)) == t
    return t


@st.composite
def mutated(draw, source):
    """A text from ``source`` with a few bytes replaced, inserted or deleted."""
    data = bytearray(draw(source).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            else:
                del data[at]
    return data.decode("latin-1")


class TestAdversarialGrammar:
    """Hostile input either round-trips or is a TreeParseError."""

    @given(st.text(alphabet="()+-0123456789", max_size=40))
    def test_bracket_soup(self, text):
        decodes_or_rejects(text)

    @given(mutated(random_trees().map(encode)))
    def test_byte_mutations(self, text):
        decodes_or_rejects(text)

    @given(st.integers(-(10**18), 10**18), nested_trees())
    def test_huge_labels(self, root, nested):
        t = LabelledPlaneTree.from_nested(root, nested)
        text = encode(t)
        assert decodes_or_rejects(text) == t
        assert decodes_or_rejects(text + ")") is None
        assert decodes_or_rejects(text[:-1]) is None

    def test_overlong_label(self):
        with pytest.raises(TreeParseError) as exc:
            decode("9" * 10**4 + "()")
        assert exc.value.offset == 0

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.sampled_from("+-0"), min_size=1, max_size=8),
        st.integers(0, 2 * 10**4 + 2),
    )
    def test_deep_nesting(self, pattern, cut):
        depth = 10**4
        incs = (pattern * depth)[:depth]
        text = "0" + "".join(f"({c}" for c in incs) + "()" + ")" * depth
        assert decodes_or_rejects(text).n_edges == depth
        # cut short, or with one bracket too many: a TreeParseError
        assert decodes_or_rejects(text[: len(text) - 1 - cut % depth]) is None
        assert decodes_or_rejects(text[:cut] + "(" + text[cut:]) is None

    @settings(max_examples=20, deadline=None)
    @given(mutated(st.just("0" + "(+" * 10**4 + "()" + ")" * 10**4)))
    def test_deep_mutations(self, text):
        decodes_or_rejects(text)

    @pytest.mark.parametrize("text", ["\xb2()", "\u0663()", "1\xb9()", "+\u00b2(+())"])
    def test_non_ascii_digits_are_rejected(self, text):
        assert decodes_or_rejects(text) is None


DEPTH = 10**5
DEEP_PATH = "0" + "(+" * DEPTH + "()" + ")" * DEPTH


class TestDeepPath:
    """A depth-10^5 path: far beyond Python's recursion limit."""

    def test_encode_decode(self):
        t = decode(DEEP_PATH)
        assert t.n_edges == DEPTH and t.labels[-1] == DEPTH
        assert encode(t) == DEEP_PATH

    def test_truncate(self):
        t = decode(DEEP_PATH)
        assert truncate(t, 3) == decode("0(+(+(+())))")
        assert truncate(t, DEPTH + 1) == t

    def test_decompose_reconstruct(self):
        from gwprofile.excursion import decompose, reconstruct

        t = decode(DEEP_PATH)
        for m in (1, -1):
            assert reconstruct(decompose(t, m)) == t

    def test_zigzag_decompose_reconstruct(self):
        # 0(+(-(+(-...)))): every edge crosses level 1/2, so the level-1
        # forest is a path of DEPTH excursions.
        from gwprofile.excursion import decompose, reconstruct

        text = "0" + "(+(-" * (DEPTH // 2) + "()" + "))" * (DEPTH // 2)
        t = decode(text)
        d = decompose(t, 1)
        assert d.forest.n_vertices == DEPTH
        assert reconstruct(d) == t

    def test_from_nested(self):
        depth = 10**4
        nested = ()
        for _ in range(depth):
            nested = ((1, nested),)
        text = "0" + "(+" * depth + "()" + ")" * depth
        assert LabelledPlaneTree.from_nested(0, nested) == decode(text)


class TestTruncate:
    def test_strict_ancestor_rule(self):
        # path 0 -> 1 -> 2 truncated at 1 keeps the label-1 vertex
        t = decode("0(+(+()))")
        assert truncate(t, 1) == decode("0(+())")

    def test_no_op(self):
        t = decode("0(-(0()))")
        assert truncate(t, 5) == t

    @given(random_trees(), st.integers(1, 4))
    def test_idempotent(self, t, m):
        once = truncate(t, m)
        assert truncate(once, m) == once


class TestEdgeProfile:
    def test_single_down_edge(self):
        prof = edge_profile(decode("0(-())"))
        assert prof.check_minus == {1: 1}
        assert prof.check_plus == {} and prof.x_plus == {} and prof.x_minus == {}

    def test_two_up_leaves(self):
        prof = edge_profile(decode("0(+()+())"))
        assert prof.x_plus == {1: 2}

    def test_mass_below(self):
        # edges with both labels <= m-1
        prof = edge_profile(decode("0(+(+())0())"))
        assert prof.mass_below(1) == 1  # only the 0-0 edge
        assert prof.mass_below(2) == 2
        assert prof.mass_below(3) == 3
        # edges (0,-1), (-1,-2), (0,0): at level 0, the two vertices labelled
        # <= -1 less the down-edge 0 -> -1 that enters them
        prof = edge_profile(decode("0(-(-())0())"))
        assert [prof.mass_below(m) for m in (-2, -1, 0, 1)] == [0, 0, 1, 3]

    @given(random_trees(root_label=0))
    def test_profile_totals(self, t):
        prof = edge_profile(t)
        total = (
            sum(prof.x_plus.values())
            + sum(prof.x_minus.values())
            + sum(prof.check_plus.values())
            + sum(prof.check_minus.values())
            + sum(
                1
                for v in t.vertices()
                if t.parents[v] is not None and t.labels[v] == t.labels[t.parents[v]]
            )
        )
        assert total == t.n_edges
        for m in range(min(t.labels) - 1, max(t.labels) + 3):
            brute = sum(
                1
                for v in range(1, t.n_vertices)
                if max(t.labels[v], t.labels[t.parents[v]]) <= m - 1
            )
            assert prof.mass_below(m) == brute, m

    @given(random_trees(root_label=0))
    def test_levels_consistent(self, t):
        prof = edge_profile(t)
        # an up edge at level m needs a vertex reaching label m
        for m in prof.x_plus:
            assert m >= 1 and max(t.labels) - t.labels[0] >= 0


# The profile as five dicts split by side, as the package stored it before
# it held one ``up`` and one ``down`` count per integer label.
ReferenceProfile = namedtuple(
    "ReferenceProfile", "x_plus x_minus check_plus check_minus vertical"
)


def reference_edge_profile(t: LabelledPlaneTree) -> ReferenceProfile:
    """Compute the vertical edge profile of a tree rooted at label 0."""
    if t.root_label != 0:
        raise DomainError("edge profile requires a tree rooted at label 0")
    x_plus: dict = {}
    x_minus: dict = {}
    check_plus: dict = {}
    check_minus: dict = {}
    vertical: dict = {}
    labels = t.labels
    for v in t.vertices():
        lv = labels[v]
        vertical[lv] = vertical.get(lv, 0) + 1
        p = t.parents[v]
        if p is None:
            continue
        lp = labels[p]
        if lv == lp:
            continue
        upper = max(lv, lp)
        if upper >= 1:
            # crossing of upper - 1/2 on the positive side
            if lv > lp:
                x_plus[upper] = x_plus.get(upper, 0) + 1
            else:
                x_minus[upper] = x_minus.get(upper, 0) + 1
        else:
            # upper <= 0: crossing of -m + 1/2 with m = 1 - upper
            m = 1 - upper
            if lv < lp:
                check_minus[m] = check_minus.get(m, 0) + 1
            else:
                check_plus[m] = check_plus.get(m, 0) + 1
    return ReferenceProfile(x_plus, x_minus, check_plus, check_minus, vertical)


def reference_mass_below(prof: ReferenceProfile, m: int) -> int:
    below = sum(c for k, c in prof.vertical.items() if k <= m - 1)
    if m >= 1:
        return below - 1 - prof.x_minus.get(m, 0)
    return below - prof.check_minus.get(1 - m, 0)


def reference_halves(prof: ReferenceProfile):
    """The (plus, check) key that the profile-count suite built by hand."""

    def pairs(a, b, top):  # (a_k, b_k) for k = 1 .. top
        return tuple((a.get(k, 0), b.get(k, 0)) for k in range(1, top + 1))

    plus = pairs(prof.x_plus, prof.x_minus, max([*prof.x_plus, 0]))
    check = pairs(prof.check_plus, prof.check_minus, max([*prof.check_minus, 0]))
    return plus, check


def small_trees():
    """Every tree with at most 6 edges of each builtin."""
    for model_id in BUILTIN_IDS:
        for edges in range(7):
            for t, _ in enumerate_trees(builtin_model(model_id), edges).items:
                yield t


def sampled_trees_below_zero(per_model=60):
    """Sampled trees of each builtin that reach a negative label."""
    for model_id in BUILTIN_IDS:
        sampler = Sampler(builtin_model(model_id), SamplerConfig(seed=24, vertex_cap=5000))
        found = 0
        while found < per_model:
            try:
                t = sampler.sample_tree()
            except ResourceLimitError:
                continue
            if min(t.labels) < 0:
                found += 1
                yield t


class TestProfileAgainstReference:
    """``up``/``down`` per integer label, their four side views, ``halves``
    and ``mass_below`` against the five-dict profile."""

    @staticmethod
    def check(t):
        prof, ref = edge_profile(t), reference_edge_profile(t)
        assert prof.up == {**ref.x_plus, **{1 - m: c for m, c in ref.check_plus.items()}}
        assert prof.down == {**ref.x_minus, **{1 - m: c for m, c in ref.check_minus.items()}}
        assert prof.vertical == ref.vertical
        assert list(prof.vertical) == list(ref.vertical)
        assert (prof.x_plus, prof.x_minus, prof.check_plus, prof.check_minus) == ref[:4]
        assert prof.halves() == reference_halves(ref)
        for m in range(min(t.labels) - 1, max(t.labels) + 3):
            assert prof.mass_below(m) == reference_mass_below(ref, m), m

    def test_every_small_tree(self):
        n = 0
        for t in small_trees():
            self.check(t)
            n += 1
        assert n == 118426

    def test_sampled_trees_with_negative_labels(self):
        for t in sampled_trees_below_zero():
            self.check(t)

    def test_both_sides_by_hand(self):
        prof = edge_profile(decode("0(-(-()+())+())"))
        assert (prof.up, prof.down) == ({0: 1, 1: 1}, {0: 1, -1: 1})
        assert (prof.x_plus, prof.x_minus) == ({1: 1}, {})
        assert (prof.check_plus, prof.check_minus) == ({1: 1}, {1: 1, 2: 1})
        assert prof.halves() == (((1, 0),), ((1, 1), (0, 1)))
        with pytest.raises(AttributeError):
            prof.x_plus = {}
