import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F

import pytest
from test_golden import CUSTOM_MODELS

from gwprofile import builtin_model, edge_profile
from gwprofile.errors import ConfigurationError, DomainError, ResourceLimitError
from gwprofile.tree import LabelledPlaneTree
from gwprofile.model import (
    BUILTIN_IDS,
    DisplacementFamily,
    OffspringDistribution,
    TreeModel,
)
from gwprofile.sampler import (
    Sampler,
    SamplerConfig,
    _cumulative,
    make_rng,
    sample_incomplete_binary_profile,
)


def reference_vertex_draw(model, rng):
    """The vertex draw with one random call per displacement step, in plane
    order: the definition the word-table draw must match, draw for draw."""
    off, disp = model.offspring, model.displacement
    random_, bits, randrange = rng.random, rng.getrandbits, rng.randrange
    if off.kind == "finite-table":
        arities = [d for d, x in enumerate(off.table) if x]  # the positive ones
        _, arity_cum = _cumulative(enumerate(off.table[: arities[-1] + 1]))

        def arity() -> int:
            return bisect_right(arity_cum, random_())

    else:  # geometric-half, P(k) = 2^{-k-1}: count leading 1-bits

        def arity() -> int:
            k = 0
            while bits(1):
                k += 1
            return k

    if disp.kind == "iid-uniform-pm1":
        return lambda: tuple([1 - 2 * bits(1) for _ in range(arity())])
    if disp.kind == "iid-uniform-pm01":
        return lambda: tuple([randrange(3) - 1 for _ in range(arity())])
    # ξ is finite here (TreeModel); arity -> (positive-weight vectors, cumulative)
    tables = {d: _cumulative(disp.vectors(d)) for d in arities if d}

    def draw():
        d = arity()
        if not d:
            return ()
        vectors, cum = tables[d]
        return vectors[bisect_right(cum, random_())]

    return draw


def reference_grow(draw, root_label, vertex_cap, freeze_zero=False):
    """The tree loop with the vertex draw as a separate call: ``draw`` is a
    ``reference_vertex_draw``, whose plane-order increments are reversed so
    that children are pushed last child first.  The definition the sampler's
    one loop must match, draw for draw, cap included."""
    labels = []
    parents = []
    stack = [(root_label, None)]
    drawn = 1
    while stack:
        label, parent = stack.pop()
        v = len(labels)
        labels.append(label)
        parents.append(parent)
        if freeze_zero and label == 0:
            continue
        incs = draw()[::-1]
        if not incs:
            continue
        drawn += len(incs)
        if drawn > vertex_cap:
            return None
        stack.extend([(label + inc, v) for inc in incs])
    return LabelledPlaneTree.unchecked(labels, parents)


def reference_incomplete_binary_profile(rng, vertex_cap):
    """The fast profile path as first written: one stack pop and one
    ``getrandbits(2)`` per vertex, each edge counted as it is drawn and the
    cap checked after every draw.  The definition the walk must match,
    draw for draw."""
    xp = [0, 0]
    xm = [0, 0]
    cp = [0, 0]
    cm = [0, 0]
    stack = [0]
    grb = rng.getrandbits
    count = 1
    pop = stack.pop
    push = stack.append
    while stack:
        lab = pop()
        code = grb(2)
        if not code:
            continue
        count += code & 1
        count += code >> 1
        if count > vertex_cap:
            return None
        if code & 1:  # child labelled lab - 1
            c = lab - 1
            if lab >= 1:  # downward edge below level lab
                if lab >= len(xm):
                    xm.extend([0] * (lab + 1 - len(xm)))
                xm[lab] += 1
            else:  # upper label is lab (= -m+1), lower is c
                m = 1 - lab
                if m >= len(cm):
                    cm.extend([0] * (m + 1 - len(cm)))
                cm[m] += 1
            push(c)
        if code >> 1:  # child labelled lab + 1
            c = lab + 1
            if c >= 1:  # upward edge, upper label c
                if c >= len(xp):
                    xp.extend([0] * (c + 1 - len(xp)))
                xp[c] += 1
            else:  # upper label c = -m+1, lower lab = -m
                m = -lab
                if m >= len(cp):
                    cp.extend([0] * (m + 1 - len(cp)))
                cp[m] += 1
            push(c)
    return xp, xm, cp, cm


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.seed == 0 and cfg.stream == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(vertex_cap=0)
        with pytest.raises(ConfigurationError):
            SamplerConfig(rejection_cap=0)

    def test_streams_differ(self):
        a = make_rng(SamplerConfig(seed=1, stream=0)).random()
        b = make_rng(SamplerConfig(seed=1, stream=1)).random()
        assert a != b


class TestDeterminism:
    @pytest.mark.parametrize(
        "model_id", ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]
    )
    def test_same_seed_same_trees(self, model_id):
        model = builtin_model(model_id)
        runs = []
        for _ in range(2):
            s = Sampler(model, SamplerConfig(seed=77, vertex_cap=10**4))
            out = []
            for _ in range(50):
                try:
                    out.append(s.sample_tree())
                except ResourceLimitError:
                    out.append(None)
            runs.append(out)
        assert runs[0] == runs[1]


class TestTreeLaw:
    def test_single_vertex_frequency(self):
        # P(no children) = xi(0): 1/2 for geom-pm1, 1/4 for incomplete-binary
        for model_id, expect in [("geom-pm1", 0.5), ("incomplete-binary", 0.25)]:
            s = Sampler(builtin_model(model_id), SamplerConfig(seed=11, vertex_cap=10**5))
            hits = 0
            n = 4000
            for _ in range(n):
                try:
                    if s.sample_tree().n_vertices == 1:
                        hits += 1
                except ResourceLimitError:
                    pass
            assert abs(hits / n - expect) < 0.03

    def test_cap_raises(self):
        s = Sampler(builtin_model("geom-pm1"), SamplerConfig(seed=0, vertex_cap=2))
        with pytest.raises(ResourceLimitError):
            for _ in range(200):
                s.sample_tree()


class TestExcursionSampler:
    def test_zero_vertices_are_leaves(self):
        s = Sampler(builtin_model("geom-pm1"), SamplerConfig(seed=3, vertex_cap=10**5))
        for _ in range(200):
            try:
                e = s.sample_excursion(1)
            except ResourceLimitError:
                continue
            assert e.labels[0] == 1
            for v in e.vertices():
                if e.labels[v] == 0:
                    assert not e.children[v]

    def test_bad_sign(self):
        s = Sampler(builtin_model("geom-pm1"), SamplerConfig())
        with pytest.raises(DomainError):
            s.sample_excursion(0)


class TestConditionedSampler:
    def test_exact_size(self):
        s = Sampler(builtin_model("incomplete-binary"), SamplerConfig(seed=9))
        for _ in range(30):
            assert s.sample_conditioned(3).n_edges == 3

    def test_geometric_past_twenty_edges(self):
        # the zero-mass guard must cost far less than the sampling it guards
        s = Sampler(builtin_model("geom-pm1"), SamplerConfig(seed=9))
        assert s.sample_conditioned(30).n_edges == 30

    def test_zero_mass(self):
        # complete-binary trees always have an even number of edges
        s = Sampler(builtin_model("complete-binary"), SamplerConfig(seed=9))
        with pytest.raises(DomainError):
            s.sample_conditioned(3)


def assert_same_walks(rngs, cap):
    """The fast path and the reference agree on every call, and leave their
    generator, a copy of the same one, in the same state."""
    capped = 0
    for rng in rngs:
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = sample_incomplete_binary_profile(rng, cap)
        assert got == reference_incomplete_binary_profile(twin, cap)
        assert rng.getstate() == twin.getstate()
        capped += got is None
    return capped


class TestFastProfile:
    def test_matches_reference_on_a_shared_stream(self):
        rng = make_rng(SamplerConfig(seed=2026))
        capped = assert_same_walks([rng] * 5000, 10**4)
        assert 0 < capped < 100

    def test_matches_reference_per_stream(self):
        rngs = (make_rng(SamplerConfig(seed=7, stream=i)) for i in range(1000))
        assert_same_walks(rngs, 10**4)

    @pytest.mark.parametrize("cap", [1, 2, 3, 50, 10**5])
    def test_capped_calls_stop_on_the_same_draw(self, cap):
        rng = make_rng(SamplerConfig(seed=5))
        capped = assert_same_walks([rng] * (400 if cap == 10**5 else 3000), cap)
        assert capped or cap == 10**5

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        # A leaf root is already one vertex, more than a cap of 0 allows.
        rng = make_rng(SamplerConfig(seed=0))
        with pytest.raises(ConfigurationError):
            for _ in range(20):
                sample_incomplete_binary_profile(rng, cap)

    def test_matches_generic_sampler(self):
        # the bit-coded profile path and the generic tree sampler agree in law
        model = builtin_model("incomplete-binary")
        n = 6000
        cap = 10**4

        fast = Counter()
        rng = make_rng(SamplerConfig(seed=31))
        for _ in range(n):
            prof = sample_incomplete_binary_profile(rng, cap)
            if prof is None:
                continue
            xp, xm, cp, cm = prof
            fast[(xp[1] if len(xp) > 1 else 0, xm[1] if len(xm) > 1 else 0)] += 1

        generic = Counter()
        s = Sampler(model, SamplerConfig(seed=32, vertex_cap=cap))
        for _ in range(n):
            try:
                prof = edge_profile(s.sample_tree())
            except ResourceLimitError:
                continue
            generic[(prof.x_plus.get(1, 0), prof.x_minus.get(1, 0))] += 1

        for key in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            assert abs(fast[key] / n - generic[key] / n) < 0.04


class TestQuadrangulationSampler:
    def test_valid_quadrangulation(self):
        s = Sampler(builtin_model("geom-pm01"), SamplerConfig(seed=41, vertex_cap=3000))
        for _ in range(20):
            q = s.sample_quadrangulation()
            assert q.n_faces >= 1
            assert q.n_vertices - q.n_edges + q.n_faces == 2

    @pytest.mark.parametrize("model_id", ["geom-pm1", "incomplete-binary"])
    def test_other_models_are_refused(self, model_id):
        # Quadrangulations come from geom-pm01 trees; another model would be ignored.
        s = Sampler(builtin_model(model_id), SamplerConfig(seed=41))
        with pytest.raises(ConfigurationError):
            s.sample_quadrangulation()


# xi = (3/7, 1/2, 0, 0, 0, 0, 0, 1/14): critical, with an arity-7 atom.
ARITY_7 = OffspringDistribution(
    "finite-table", (F(3, 7), F(1, 2)) + (F(0),) * 5 + (F(1, 14),)
)
DRAW_MODELS = {
    **{m: builtin_model(m) for m in BUILTIN_IDS},
    **CUSTOM_MODELS,
    "arity7-pm1": TreeModel(
        "arity7-pm1", ARITY_7, DisplacementFamily("iid-uniform-pm1")
    ),
    "arity7-pm01": TreeModel(
        "arity7-pm01", ARITY_7, DisplacementFamily("iid-uniform-pm01")
    ),
}


class RecordingRandom(random.Random):
    """A generator that records each call it makes: the width of a
    ``getrandbits`` call, and 0 for a ``random()`` call."""

    def random(self):
        self.widths.append(0)
        return super().random()

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def grown(call):
    """``call()``'s tree, or None where it passes the sampler's vertex cap."""
    try:
        return call()
    except ResourceLimitError:
        return None


def assert_same_trees(model, cap, min_draws):
    """Trees and excursions of both signs, drawn in turn on generators seeded
    2026, equal ``reference_grow``'s and leave an equal generator after every
    call, until the reference has made ``min_draws`` vertex draws.  Returns
    the calls, their capped calls, the trees with a vertex of more than
    4 children, and the ``getrandbits(32 * k)`` calls, k <= 4, with a redraw."""
    rng, twin = RecordingRandom(), random.Random()
    rng.seed(2026)
    twin.seed(2026)
    rng.widths = []
    s = Sampler(model, SamplerConfig(vertex_cap=cap))
    s.rng = rng
    ref, draws = reference_vertex_draw(model, twin), 0

    def counted():
        nonlocal draws
        draws += 1
        return ref()

    kinds = [
        (s.sample_tree, lambda: reference_grow(counted, 0, cap)),
        (lambda: s.sample_excursion(1), lambda: reference_grow(counted, 1, cap, True)),
        (lambda: s.sample_excursion(-1), lambda: reference_grow(counted, -1, cap, True)),
    ]
    calls = capped = wide = 0
    while draws < min_draws:
        call, expected = kinds[calls % 3]
        got = grown(call)
        assert got == expected()
        assert rng.getstate() == twin.getstate()
        calls += 1
        capped += got is None
        wide += got is not None and max(map(len, got.children)) > 4
    # a word call is followed by the next vertex's first call, 0 or 1 wide,
    # unless a step it took read 3 and is redrawn by a 2-bit call
    w = rng.widths
    redrawn = sum(a in (32, 64, 96, 128) and b == 2 for a, b in zip(w, w[1:]))
    return calls, capped, wide, redrawn


class TestVertexDraw:
    @pytest.mark.parametrize("name", sorted(DRAW_MODELS))
    def test_matches_reference_draw_for_draw(self, name):
        model = DRAW_MODELS[name]
        _, _, wide, redrawn = assert_same_trees(model, 10**4, 10**5)
        iid = model.displacement.kind != "per-arity-table"
        top = model.offspring.max_arity  # None: unbounded
        if iid and (top is None or top > 4):
            assert wide > 0
        if model.displacement.kind == "iid-uniform-pm01":
            assert redrawn > 0

    @pytest.mark.parametrize("cap", range(1, 9))
    @pytest.mark.parametrize("model_id", BUILTIN_IDS)
    def test_capped_calls_stop_on_the_same_draw(self, model_id, cap):
        calls, capped, _, _ = assert_same_trees(builtin_model(model_id), cap, 2000)
        assert 0 < capped < calls

    @pytest.mark.parametrize("name", sorted(DRAW_MODELS))
    def test_samplers_of_one_model_share_their_tables(self, name):
        model = DRAW_MODELS[name]
        twin = TreeModel(model.name, model.offspring, model.displacement)
        a = Sampler(model, SamplerConfig(1))._tables
        assert a is Sampler(twin, SamplerConfig(2))._tables


class TestWordFacts:
    """The facts of CPython's ``random`` that let one ``getrandbits(32 * k)``
    stand for k one-word calls; each leaves two fresh generators equal."""

    def fresh(self):
        return random.Random(99), random.Random(99)

    @pytest.mark.parametrize("width", [1, 2])
    def test_few_bits_are_the_top_of_one_word(self, width):
        a, b = self.fresh()
        for _ in range(1000):
            assert a.getrandbits(width) == b.getrandbits(32) >> (32 - width)
        assert a.getstate() == b.getstate()

    def test_randrange_3_redraws_two_bits_that_read_3(self):
        a, b = self.fresh()
        for _ in range(1000):
            r = b.getrandbits(2)
            while r == 3:
                r = b.getrandbits(2)
            assert a.randrange(3) == r
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_k_words_come_low_word_first(self, k):
        a, b = self.fresh()
        for _ in range(200):
            words = [b.getrandbits(32) for _ in range(k)]
            joined = sum(w << 32 * i for i, w in enumerate(words))
            assert a.getrandbits(32 * k) == joined
        assert a.getstate() == b.getstate()
