import json
from fractions import Fraction

import pytest

from gwprofile import (
    ConfigurationError,
    DisplacementFamily,
    DomainError,
    OffspringDistribution,
    builtin_model,
    decode,
    excursion_weight,
    load_model,
    parse_model_config,
    resolve_model,
    tree_weight,
)
from gwprofile.model import BUILTIN_IDS, TreeModel

# The builtin finite models, written as JSON model configs.
FINITE_CONFIGS = {
    "incomplete-binary": {
        "offspring": {"kind": "finite-table", "table": ["1/4", "1/2", "1/4"]},
        "displacement": {
            "kind": "per-arity-table",
            "tables": {"1": [[[-1], "1/2"], [[1], "1/2"]], "2": [[[-1, 1], "1"]]},
        },
    },
    "complete-binary": {
        "offspring": {"kind": "finite-table", "table": ["1/2", "0", "1/2"]},
        "displacement": {"kind": "per-arity-table", "tables": {"2": [[[-1, 1], "1"]]}},
    },
}


class TestBuiltins:
    def test_ids(self):
        for model_id in BUILTIN_IDS:
            m = builtin_model(model_id)
            assert m.name == model_id

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            builtin_model("nope")

    def test_offspring_normalized(self):
        for model_id in BUILTIN_IDS:
            m = builtin_model(model_id)
            total = sum(m.offspring.prob(k) for k in range(80))
            assert 1 - total < Fraction(1, 2**70)

    def test_critical_mean(self):
        # every builtin offspring law has mean 1
        for model_id in BUILTIN_IDS:
            m = builtin_model(model_id)
            mean = sum(k * m.offspring.prob(k) for k in range(200))
            assert abs(float(mean) - 1.0) < 1e-30

    def test_incomplete_binary_table(self):
        m = builtin_model("incomplete-binary")
        assert m.offspring.prob(0) == Fraction(1, 4)
        assert m.offspring.prob(1) == Fraction(1, 2)
        assert m.offspring.prob(2) == Fraction(1, 4)

    def test_geom_pm01_table(self):
        m = builtin_model("geom-pm01")
        for k in range(6):
            assert m.offspring.prob(k) == Fraction(1, 2 ** (k + 1))

    def test_no_general_geometric_kind(self):
        # geometric-half is the only geometric law, and it takes no parameter p.
        with pytest.raises(ConfigurationError):
            OffspringDistribution("geometric")
        with pytest.raises(TypeError):
            OffspringDistribution("geometric-half", p=Fraction(1, 3))

    @pytest.mark.parametrize("kind", ["iid-uniform-pm1", "iid-uniform-pm01"])
    def test_iid_displacement_takes_no_tables(self, kind):
        # The iid kinds are fixed laws: a table given to one is an error,
        # not silently dropped.
        with pytest.raises(ConfigurationError):
            DisplacementFamily(kind, tables={1: (((1,), Fraction(1)),)})
        assert DisplacementFamily(kind).tables is None
        config = {
            "offspring": {"kind": "finite-table", "table": ["1/2", "1/2"]},
            "displacement": {"kind": kind, "tables": {"1": [[[1], "1"]]}},
        }
        with pytest.raises(ConfigurationError):
            parse_model_config(config)


class TestResolve:
    def test_builtin_prefix(self):
        assert resolve_model("builtin:geom-pm1").name == "geom-pm1"

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            resolve_model("urn:geom-pm1")


class TestTreeWeight:
    def test_single_vertex(self):
        m = builtin_model("geom-pm1")
        assert tree_weight(m, decode("0()")) == Fraction(1, 2)

    def test_complete_binary_unary_zero(self):
        m = builtin_model("complete-binary")
        assert tree_weight(m, decode("0(+())")) == 0

    def test_incomplete_binary_closed_form(self):
        m = builtin_model("incomplete-binary")
        for text in ["0()", "0(+())", "0(-(+()))", "0(-()+())"]:
            t = decode(text)
            assert tree_weight(m, t) == Fraction(1, 4 ** (t.n_edges + 1))

    def test_invalid_increment_zero_weight(self):
        m = builtin_model("geom-pm1")
        assert tree_weight(m, decode("0(0())")) == 0


class TestExcursionWeight:
    def test_single_zero_leaf(self):
        # root +1, one child labelled 0 (a leaf, excluded from the product)
        m = builtin_model("geom-pm1")
        w = excursion_weight(m, decode("1(-())"))
        assert w == m.offspring.prob(1) * Fraction(1, 2)

    def test_two_children(self):
        # root 1 with children 0 and 2, label-2 vertex a leaf
        m = builtin_model("geom-pm1")
        w = excursion_weight(m, decode("1(-()+())"))
        assert w == m.offspring.prob(2) * Fraction(1, 4) * m.offspring.prob(0)

    def test_rejects_non_excursion(self):
        m = builtin_model("geom-pm1")
        with pytest.raises(DomainError):
            excursion_weight(m, decode("0(+())"))
        with pytest.raises(DomainError):
            excursion_weight(m, decode("1(-(+()))"))


class TestConfig:
    def test_roundtrip_finite_models(self):
        for model_id, cfg in FINITE_CONFIGS.items():
            m = builtin_model(model_id)
            m2 = parse_model_config(cfg)
            assert m2.key == m.key
            t = decode("0(-(+()))")
            assert tree_weight(m2, t) == tree_weight(m, t)

    def test_load_model(self, tmp_path):
        cfg = FINITE_CONFIGS["incomplete-binary"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        m = load_model(str(path))
        assert m.offspring.prob(1) == Fraction(1, 2)

    def test_missing_field(self):
        with pytest.raises(ConfigurationError):
            parse_model_config({"offspring": {"kind": "finite-table", "table": []}})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigurationError):
            load_model(str(path))


class TestCompleteness:
    OFFSPRING = OffspringDistribution(
        "finite-table", (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    )
    UNARY = (((-1,), Fraction(1, 2)), ((1,), Fraction(1, 2)))

    def test_supported_arity_without_a_table_is_refused(self):
        # xi(2) = 1/4 > 0, and the family holds a law for arity 1 only.
        disp = DisplacementFamily("per-arity-table", {1: self.UNARY})
        with pytest.raises(
            ConfigurationError, match="^no displacement law for supported arity 2$"
        ):
            TreeModel("m", self.OFFSPRING, disp)

    def test_zero_weight_vector_beside_a_full_law_is_accepted(self):
        zero_unary = self.UNARY + (((0,), Fraction(0)),)
        binary = (((-1, 1), Fraction(1)), ((1, -1), Fraction(0)))
        disp = DisplacementFamily("per-arity-table", {1: zero_unary, 2: binary})
        m = TreeModel("m", self.OFFSPRING, disp)
        assert [v for v, _ in m.displacement.vectors(1)] == [(-1,), (1,)]
        assert [v for v, _ in m.displacement.vectors(2)] == [(-1, 1)]


def reference_key(model):
    """The model key with ``Fraction`` probabilities, as the package built
    it before they became int (numerator, denominator) pairs."""
    off = model.offspring
    disp = model.displacement
    off_key = (off.kind, off.table)
    if disp.kind == "per-arity-table":
        disp_key = (disp.kind, tuple(sorted(disp.tables.items())))
    else:
        disp_key = (disp.kind,)
    return (off_key, disp_key)


def key_models():
    """Builtins, their configs, equal laws written differently and near misses."""
    models = [builtin_model(k) for k in BUILTIN_IDS]
    models += [parse_model_config(cfg) for cfg in FINITE_CONFIGS.values()]
    binary = json.loads(json.dumps(FINITE_CONFIGS["incomplete-binary"]))
    binary["offspring"]["table"] = ["2/8", "4/8", "1/4"]
    binary["displacement"]["tables"]["1"] = [[[-1], "2/4"], [[1], "1/2"]]
    models.append(parse_model_config(binary))
    binary["displacement"]["tables"]["1"] = [[[1], "1/3"], [[-1], "2/3"]]
    models.append(parse_model_config(binary))
    half, third = Fraction(1, 2), Fraction(1, 3)
    tables = ((half, 0, half), (half, Fraction(0), half), (half, 0, half, 0),
              (third, third, third), (half / 2, half, half / 2))
    for table in tables:
        for disp in ("iid-uniform-pm1", "iid-uniform-pm01"):
            models.append(TreeModel("t", OffspringDistribution("finite-table", table),
                                    DisplacementFamily(disp)))
    return models


class TestKey:
    def test_equal_exactly_when_the_fraction_keys_are(self):
        models = key_models()
        equal_pairs = 0
        for a in models:
            for b in models:
                same = reference_key(a) == reference_key(b)
                assert (a.key == b.key) == same, (a, b)
                if same:
                    assert hash(a.key) == hash(b.key)
                    equal_pairs += a is not b
        assert equal_pairs == 12  # ordered pairs of distinct equal models

    def test_holds_only_ints_and_strings(self):
        def leaves(x):
            if isinstance(x, tuple):
                for y in x:
                    yield from leaves(y)
            else:
                yield x

        for m in key_models():
            assert {type(x) for x in leaves(m.key)} <= {int, str}, m.key

    def test_built_once(self):
        m = builtin_model("incomplete-binary")
        assert m.key is m.key
