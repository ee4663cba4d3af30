"""Golden values: the random stream and the decomposition numbering.

The hashes below were computed before trees were built directly in
preorder, and pin two contracts: a ``(seed, stream)`` pair determines every
sampled tree, and ``gwprofile decompose`` numbers forest vertices as
documented on ``ExcursionForest``.  A deliberate change to either must bump
the sampler stream version or the output format, and update these values.
"""

import hashlib
from fractions import Fraction as F

import pytest

from gwprofile import builtin_model, encode
from gwprofile.cli import main
from gwprofile.errors import ResourceLimitError
from gwprofile.model import (
    BUILTIN_IDS,
    DisplacementFamily,
    OffspringDistribution,
    TreeModel,
)
from gwprofile.sampler import (
    Sampler,
    SamplerConfig,
    make_rng,
    sample_incomplete_binary_profile,
)


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def draw(sample, count):
    lines = []
    for i in range(count):
        try:
            lines.append(encode(sample(i)))
        except ResourceLimitError:
            lines.append("capped")
    return lines


# (SHA-256 of the first 200 trees, SHA-256 of the next 200 excursions of
# alternating sign), drawn at seed 2026, stream 7, vertex_cap 10^5.
STREAMS = {
    "geom-pm1": (
        "3d80838bfd47f332ee2d335e0e0c9f8117f2e3ef62f7217ab0616cdb69527e0d",
        "fa31ed252e744c51b3be8b5302bb01ad53e82e0ca14387f8b975e29dead3311d",
    ),
    "geom-pm01": (
        "75351c4abe0e209ac63eee0b91eacff912780ddd32e3e7eb932ba52872362bce",
        "c2499a7dcd55c8bd81a3a3ef6e4936752719419b768da745a5818610e50b10f4",
    ),
    "incomplete-binary": (
        "855342369fec6119ca678fcb1ee59230116a8b4601383250fa20b1265b374e6a",
        "3967dad3e7af6c73bd88effb2c835ab60a1e0bf01beba5227959d1705fd41156",
    ),
    "complete-binary": (
        "dd956cfa9ae72ca8b1d5d0dcab9e06c309f81894216b3963731202fb31b46d4f",
        "041df06160a97e4eb5cf9b50c3d26037ad2806e429ba63f0131370ae856c3f75",
    ),
}


@pytest.mark.parametrize("model_id", BUILTIN_IDS)
def test_sampler_stream(model_id):
    config = SamplerConfig(seed=2026, stream=7, vertex_cap=10**5)
    s = Sampler(builtin_model(model_id), config)
    trees = draw(lambda i: s.sample_tree(), 200)
    excursions = draw(lambda i: s.sample_excursion(1 - 2 * (i % 2)), 200)
    assert (sha256(trees), sha256(excursions)) == STREAMS[model_id]


# Model shapes the builtins miss: a finite offspring table with iid +-1
# steps; one with a zero-probability arity and iid {-1,0,1} steps; and a
# per-arity table with zero-weight vectors, one of them last.  (SHA-256 of
# the first 300 trees, SHA-256 of the next 100 excursions of alternating
# sign), drawn at seed 2026, stream 7, vertex_cap 10^5, pinned before the
# vertex draw was compiled once per sampler.
CUSTOM_MODELS = {
    "table-pm1": TreeModel(
        "table-pm1",
        OffspringDistribution("finite-table", (F(1, 3), F(1, 3), F(1, 3))),
        DisplacementFamily("iid-uniform-pm1"),
    ),
    "gap-pm01": TreeModel(
        "gap-pm01",
        OffspringDistribution("finite-table", (F(3, 5), F(0), F(1, 5), F(1, 5))),
        DisplacementFamily("iid-uniform-pm01"),
    ),
    "zero-weight-vectors": TreeModel(
        "zero-weight-vectors",
        OffspringDistribution("finite-table", (F(1, 4), F(1, 2), F(1, 4))),
        DisplacementFamily(
            "per-arity-table",
            {
                1: (((-1,), F(1, 2)), ((0,), F(0)), ((1,), F(1, 2))),
                2: (
                    ((-1, 1), F(3, 10)),
                    ((1, 1), F(3, 5)),
                    ((-1, -1), F(1, 10)),
                    ((0, 0), F(0)),
                ),
            },
        ),
    ),
}
CUSTOM_STREAMS = {
    "table-pm1": (
        "b4271ab252dd95acc65e881716a3636e33128540e4931b574e3d8a11041a4504",
        "a21032ac15012838b6b45bf2052c49ec40c3c57c0784ad75fc7d664bdf6f6d08",
    ),
    "gap-pm01": (
        "929807b94e218da4fd1fa21b417331b5a3651d976dfbe1269e1651231dab0e60",
        "722e07adcfb0fe715a690a0efbb3147d22c4f55e333b43f0f86fc9a5ac0b8044",
    ),
    "zero-weight-vectors": (
        "c0e9e9d43fa19ec742c7a9d9b97dbcf5c8855e53c620056775f113ee4251679a",
        "8a88bce421a256115a69149af26c1256ae8d69714cc142a859582c6d8a4b0e14",
    ),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_MODELS))
def test_custom_model_stream(name):
    config = SamplerConfig(seed=2026, stream=7, vertex_cap=10**5)
    s = Sampler(CUSTOM_MODELS[name], config)
    trees = draw(lambda i: s.sample_tree(), 300)
    excursions = draw(lambda i: s.sample_excursion(1 - 2 * (i % 2)), 100)
    assert (sha256(trees), sha256(excursions)) == CUSTOM_STREAMS[name]


# The SHA-256 of the incomplete-binary fast profile path's first 2,000 calls
# on one generator at seed 2026, stream 0, vertex_cap 10^4 (each the repr of
# the returned 4-tuple of lists, or "capped"), pinned before the walk was
# rewritten to count its edges per batch and check the cap by headroom.
FAST_PROFILE_STREAM = "c4c34ea70ef2040e9c86f747a67045a27a134e1ad28e0b0df381bb35b3618828"


def test_fast_profile_stream():
    rng = make_rng(SamplerConfig(seed=2026))
    profiles = [sample_incomplete_binary_profile(rng, 10**4) for _ in range(2000)]
    lines = ["capped" if p is None else repr(p) for p in profiles]
    assert sha256(lines) == FAST_PROFILE_STREAM


# The first six geom-pm1 trees with 30 to 300 edges at seed 2026, stream 0,
# vertex_cap 10^4, and the SHA-256 of `gwprofile decompose` stdout for them
# at each level.
DECOMPOSE_TREES = "911124d19ad6c39c6fccb22cd8a7daec3808f16e0ca4440793f403aa42cc65c0"
DECOMPOSE = {
    1: "bab120fb638333866cc108e824e4dd23a3bacccb3a7c42cc28e05a8467e05ccb",
    -1: "ad660118f496558c5b0621553a7a352249137916c175c735828bce4dd180d010",
    2: "4af39cd1511dbebd632925c13ae8a16d2154d6bb84e9e46c10925b9465695f69",
    -2: "154235085baa965a0727e18130c14c9550ba9ae6b51460dff6679e6ace87a0ee",
}


@pytest.fixture(scope="module")
def decompose_trees():
    config = SamplerConfig(seed=2026, stream=0, vertex_cap=10**4)
    s = Sampler(builtin_model("geom-pm1"), config)
    texts = []
    while len(texts) < 6:
        try:
            t = s.sample_tree()
        except ResourceLimitError:
            continue
        if 30 <= t.n_edges <= 300:
            texts.append(encode(t))
    assert sha256(texts) == DECOMPOSE_TREES
    return texts


@pytest.mark.parametrize("level", sorted(DECOMPOSE))
def test_decompose_records(capsys, decompose_trees, level):
    for text in decompose_trees:
        assert main(["decompose", "--tree", text, "--level", str(level)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE[level]


def test_decompose_record_literal(capsys):
    # One record spelled out.  Forest vertices 0 and 1 are the root's two
    # +1 children, cut from the root in plane order; 2 is cut from the first
    # of them, so it is numbered last although it comes second in preorder.
    assert main(["decompose", "--tree", "0(+(+()-(0()))+())", "--level", "1"]) == 0
    assert capsys.readouterr().out == (
        '{"attachments": [0, 1, 0], "decorations": ["1(+()-())", "1()", "-1(0())"], '
        '"forest_shape": [[[]], []], "level": 1, "root_component": "0(+()+())"}\n'
    )


# Map outputs, pinned before maps were stored as dart-indexed lists: the
# SHA-256 of every `save_map` CSV, in order, for all geom-pm01 trees with
# <= 3 edges and for the first 20 sampled quadrangulations at seed 2026,
# stream 0, vertex_cap 2000, each tree in both orientations; and of the
# stdout of `gwprofile maps --in ... --to-tree --profile --check` on the
# first 6 of those sampled maps.
MAP_CSVS = "0bdfa53dd02f5b5a2b41fb297a36c0c0101d9928e40d20b9f004f7c2cff2fb0d"
MAP_TO_TREE_STDOUT = "44e8ae0b4b7fb454bbda298e3cf8367b8b22e57e8a78e7872082dfab2e704e6d"


@pytest.fixture(scope="module")
def golden_maps():
    from gwprofile.maps import map_to_tree, tree_to_map
    from gwprofile.oracle import enumerate_trees

    model = builtin_model("geom-pm01")
    trees = [t for e in range(1, 4) for t, _ in enumerate_trees(model, e).items]
    s = Sampler(model, SamplerConfig(seed=2026, stream=0, vertex_cap=2000))
    trees += [map_to_tree(s.sample_quadrangulation())[0] for _ in range(20)]
    return [tree_to_map(t, bit) for t in trees for bit in (0, 1)]


def test_map_csvs(tmp_path, golden_maps):
    from gwprofile.maps import save_map

    h = hashlib.sha256()
    path = tmp_path / "map.csv"
    for q in golden_maps:
        save_map(q, str(path))
        h.update(path.read_bytes())
    assert h.hexdigest() == MAP_CSVS


def test_map_to_tree_stdout(capsys, tmp_path, golden_maps):
    from gwprofile.maps import save_map

    sampled = golden_maps[-40::2][:6]
    for i, q in enumerate(sampled):
        path = str(tmp_path / f"map{i}.csv")
        save_map(q, path)
        assert main(["maps", "--in", path, "--to-tree", "--profile", "--check"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MAP_TO_TREE_STDOUT
