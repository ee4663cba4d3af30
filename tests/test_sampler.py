from collections import Counter

import pytest

from gwprofile import builtin_model, edge_profile
from gwprofile.errors import ConfigurationError, DomainError, ResourceLimitError
from gwprofile.sampler import (
    Sampler,
    SamplerConfig,
    make_rng,
    sample_incomplete_binary_profile,
)


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
            assert e.sign == 1
            for v in e.tree.vertices():
                if e.tree.labels[v] == 0:
                    assert not e.tree.children[v]

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


class TestFastProfile:
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
