"""The four benchmark workloads, run through gwprofile's public functions.

Each workload is a function ``run(api, sizes, seed, ctx, tracer, checks,
counters)`` returning the vertex count its ``vertices_per_s`` divides;
``ctx`` is what :func:`setup` built.  It calls the library only through
``api``, a mapping from span name (``<module>.<function>``) to the
callable, so that a traced run can wrap every call without the untraced
run paying for it.  Every output is checked; the outcome goes to
``checks`` and the exact work done to ``counters``, whose values repeat
exactly for a given seed.

Sampling workloads draw until a work budget is met rather than a fixed
number of trees: critical Galton-Watson tree sizes are heavy-tailed, so
a fixed count would make the work, and the run time, swing with the
seed.  Each budget counts what dominates that workload's cost.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import comb

# Chi-square tests pass at p > ALPHA (the threshold of acceptance
# criteria 6 and 8), with a Bonferroni correction over the tests of one
# run so that a correct program fails a run with probability <= ALPHA.
# Cells are pooled to expected counts >= MIN_EXPECTED first (pool_cells).
ALPHA = 0.001
MIN_EXPECTED = 5.0

# stats.chi_square documents that cells with expected count below 5 are
# pooled, but it pools only until one bucket reaches 5 and keeps every
# later small cell on its own.  On this input (n = 100) the documented
# rule leaves 2 cells; the program keeps 7, five with expected count 1.
# With census rows of 100 to 11,000 visits drawn from the kernel itself,
# such cells made a row reject at p < 1e-4 twenty times too often, and a
# run (~50 rows, p > 0.001 with Bonferroni) fail about once in 20; after
# pool_cells the rates were within 1.6x of nominal.  The probe reports
# the defect (stats.chi_square.sparse_pool_failures); the checks pool.
SPARSE_POOL_PROBE = (
    {("small", i): 1 for i in range(10)} | {"big": 90},
    {("small", i): 0.01 for i in range(10)} | {"big": 0.9},
)
SPARSE_POOL_PROBE_CELLS = 2

# decode() of this depth-3,000 path raises RecursionError at Python's
# default recursion limit (a known defect, ROADMAP item 2).
DEEP_PATH = "0" + "(+" * 3000 + "()" + ")" * 3000

MODELS = ("geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary")

# mc-trees budgets its work in processed-vertex units.  Measured: a tree
# costs about 5 vertices more than its size (per-call overheads of the
# pipeline), and each vertex drawn for a tree abandoned at vertex_cap costs
# about 0.2 (drawn, never processed).  Capped trees are rare and large, so
# without these terms their count would swing the run time with the seed.
TREE_COST = 5
CAPPED_VERTEX_COST = 0.2

WORKLOADS = {
    "mc-trees": {
        "why": (
            "Generic tree pipeline of acceptance criteria 7 and 8, the bulk of"
            " tier-1 time; the preorder-array tree core should move it most."
        ),
        "sizes": {"vertex_cap": 10**4, "work_budget_per_model": 240_000, "nu_order": 80},
        "tiny": {"vertex_cap": 200, "work_budget_per_model": 800, "nu_order": 20},
    },
    "mc-census": {
        "why": (
            "The stats --test-kernel pipeline: reads profiles without building"
            " trees, so a tree-core change should leave it unchanged."
        ),
        # min_visits scales the CLI's 500 visits per 10**5 trees to this
        # census (about 2.3 * 10**4 trees), so about the same rows are tested.
        "sizes": {"vertex_cap": 10**5, "vertex_budget": 16_000_000, "min_visits": 100,
                  "nu_order": 40, "f_p_max": 40, "f_q_max": 35, "smax": 30},
        "tiny": {"vertex_cap": 1000, "vertex_budget": 20_000, "min_visits": 50,
                 "nu_order": 40, "f_p_max": 40, "f_q_max": 35, "smax": 30},
    },
    "exact-tables": {
        "why": (
            "Exact rational tables and oracles with no sampling: the calls"
            " ROADMAP items 3 and 4 target, at sizes no other workload runs."
        ),
        "sizes": {"nu_order": 200, "chain_V": 10, "joint_V": 20, "size_mass_edges": 14},
        "tiny": {"nu_order": 30, "chain_V": 5, "joint_V": 7, "size_mass_edges": 6},
    },
    "maps": {
        "why": (
            "The tree <-> pointed-quadrangulation bijection and ball profiles;"
            " without it the maps layer goes unmeasured."
        ),
        # Criterion 9 caps trees at 3,000 vertices.  Above 2,731 vertices a map
        # has more than 10,922 darts, which doubles the table of every per-dart
        # dict, so with 3,000 the peak RSS jumped by 4.5 MB on the half of the
        # seeds that drew one such map.
        "sizes": {"vertex_cap": 2700, "ball_work_budget": 6_000_000, "relations_every": 20},
        "tiny": {"vertex_cap": 200, "ball_work_budget": 50_000, "relations_every": 5},
    },
}


class Checks:
    """Outcome of every output check: attempted, failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def pool_cells(observed, expected):
    """Pool cells so that each has expected count >= MIN_EXPECTED.

    Cells are sorted by probability and merged, smallest first, into
    buckets that each close once they reach MIN_EXPECTED; a last bucket
    short of it joins the bucket before.  Mass ``expected`` leaves out is
    one more cell, as in ``stats.chi_square``.  An observed cell with no
    expected probability is passed through, so chi_square still rejects it.
    """
    n = sum(observed.values())
    probs = [([k], float(p)) for k, p in expected.items() if float(p) > 0]
    tail = 1.0 - sum(p for _, p in probs)
    if tail > 1e-12:
        probs.append(([], tail))
    probs.sort(key=lambda kp: kp[1])
    buckets = []
    keys, mass = [], 0.0
    for ks, p in probs:
        keys, mass = keys + ks, mass + p
        if n * mass >= MIN_EXPECTED:
            buckets.append((keys, mass))
            keys, mass = [], 0.0
    if keys or mass > 0:
        if buckets:
            last_keys, last_mass = buckets.pop()
            keys, mass = last_keys + keys, last_mass + mass
        buckets.append((keys, mass))
    obs = {("bucket", i): sum(observed.get(k, 0) for k in keys)
           for i, (keys, _) in enumerate(buckets)}
    exp = {("bucket", i): mass for i, (_, mass) in enumerate(buckets)}
    pooled = {k for keys, _ in buckets for k in keys}
    obs.update({k: v for k, v in observed.items() if k not in pooled})
    return obs, exp


def chi_square_family(api, tests, checks, counters, what):
    """Run chi-square tests [(observed, expected)], one Bonferroni family."""
    chi_square = api["stats.chi_square"]
    results = [chi_square(*pool_cells(obs, exp)) for obs, exp in tests]
    p_values = [r.p_value for r in results if r.p_value is not None]
    counters["stats.chi_square.rows_tested"] += len(p_values)
    for p in p_values:
        checks.check(p * len(p_values) > ALPHA, f"{what}: chi-square p={p:.3g}")


def setup(name, sizes, seed):
    """Resolve models and construct samplers; covers no timed work."""
    from gwprofile import resolve_model
    from gwprofile.sampler import Sampler, SamplerConfig

    if name == "mc-trees":
        return {
            m: Sampler(resolve_model(f"builtin:{m}"),
                       SamplerConfig(seed=seed, stream=i, vertex_cap=sizes["vertex_cap"]))
            for i, m in enumerate(MODELS)
        }
    if name == "maps":
        return Sampler(resolve_model("builtin:geom-pm01"),
                       SamplerConfig(seed=seed, vertex_cap=sizes["vertex_cap"]))
    return resolve_model("builtin:incomplete-binary")


def run_mc_trees(api, sizes, seed, samplers, tracer, checks, counters):
    from gwprofile.errors import ResourceLimitError
    from gwprofile.stats import fold_tail

    sample_tree = api["sampler.sample_tree"]
    edge_profile = api["tree.edge_profile"]
    decompose = api["excursion.decompose"]
    reconstruct = api["excursion.reconstruct"]
    encode = api["tree.encode"]
    decode = api["tree.decode"]
    even, odd = Counter(), Counter()
    item = 0
    cap = sizes["vertex_cap"]
    for model_id, sampler in samplers.items():
        work = 0.0
        while work < sizes["work_budget_per_model"]:
            tracer.item = item
            item += 1
            try:
                t = sample_tree(sampler)
            except ResourceLimitError:
                counters["sampler.sample_tree.capped"] += 1
                counters["sampler.sample_tree.vertices"] += cap
                work += CAPPED_VERTEX_COST * cap
                continue
            n = t.n_vertices
            work += n + TREE_COST
            counters["sampler.sample_tree.vertices"] += n
            counters["tree_vertices"] += n
            prof = edge_profile(t)
            checks.check(sum(prof.vertical.values()) == n, f"{model_id} tree {item}: edge profile")
            d = decompose(t, 1)
            checks.check(reconstruct(d) == t, f"{model_id} tree {item}: reconstruct(decompose)")
            checks.check(decode(encode(t)) == t, f"{model_id} tree {item}: decode(encode)")
            counters["excursion.decompose.forest_vertices"] += d.forest.n_vertices
            if model_id == "geom-pm1":
                f = d.forest
                for r in f.roots:
                    even[len(f.children[r])] += 1
                    for c in f.children[r]:
                        odd[len(f.children[c])] += 1
    counters["trees"] = item - counters["sampler.sample_tree.capped"]
    tracer.item = None

    nu_model = samplers["geom-pm1"].model
    nu = [float(x) for x in api["genfun.nu_table"](nu_model, sizes["nu_order"])]
    counters["genfun.nu_table.order"] = sizes["nu_order"]
    expected = {k: p for k, p in enumerate(nu) if p > 0}
    tests = [fold_tail(counts, expected) for counts in (even, odd)]
    chi_square_family(api, tests, checks, counters, "geom-pm1 forest offspring")

    try:
        probe_ok = encode(decode(DEEP_PATH)) == DEEP_PATH
    except RecursionError:
        probe_ok = False
    counters["tree.decode.deep_path_failures"] = 0 if probe_ok else 1
    return counters["tree_vertices"]


def census_checksum(census) -> str:
    rows = sorted((list(k), sorted((list(t), n) for t, n in r.items()))
                  for k, r in census.counts.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def run_mc_census(api, sizes, seed, model, tracer, checks, counters):
    from gwprofile.sampler import SamplerConfig, make_rng
    from gwprofile.stats import TransitionCensus

    sample_profile = api["sampler.sample_incomplete_binary_profile"]
    add_transitions = api["stats.add_profile_transitions"]
    transition_prob = api["kernel.transition_prob"]
    cap = sizes["vertex_cap"]
    census = TransitionCensus()
    vertices = 0
    i = 0
    while vertices < sizes["vertex_budget"]:
        tracer.item = i
        rng = make_rng(SamplerConfig(seed=seed, stream=i, vertex_cap=cap))
        i += 1
        prof = sample_profile(rng, cap)
        if prof is None:
            # The sampler drew vertex_cap vertices, at the usual cost, before giving up.
            counters["sampler.sample_incomplete_binary_profile.capped"] += 1
            vertices += cap
            continue
        xp, xm, cp, cm = prof
        # Every incomplete-binary edge changes the label, so it is counted once.
        vertices += 1 + sum(xp) + sum(xm) + sum(cp) + sum(cm)
        xpd = {k: v for k, v in enumerate(xp) if k >= 1 and v}
        xmd = {k: v for k, v in enumerate(xm) if k >= 1 and v}
        top = max(list(xpd) + list(xmd) + [1])
        add_transitions(census, xpd, xmd, range(1, top + 1))
    tracer.item = None
    counters["trees"] = i - counters["sampler.sample_incomplete_binary_profile.capped"]
    counters["sampler.sample_incomplete_binary_profile.vertices"] = vertices
    counters["stats.add_profile_transitions.transitions"] = census.total()
    counters["census_checksum"] = census_checksum(census)

    # The CLI's float table f_table(nu, 40, 35).  Its rows with p + s > 40
    # silently lose mass (ROADMAP item 3); the deficit is recorded, not fixed.
    nu = [float(x) for x in api["genfun.nu_table"](model, sizes["nu_order"])]
    counters["genfun.nu_table.order"] = sizes["nu_order"]
    f = api["genfun.f_table"](nu, sizes["f_p_max"], sizes["f_q_max"])
    counters["genfun.f_table.cells"] = (sizes["f_p_max"] + 1) * (sizes["f_q_max"] + 1)
    smax = sizes["smax"]
    tests = []
    deficit = 0.0
    for from_state in census.rows():
        if from_state == (0, 0) or census.row_total(from_state) < sizes["min_visits"]:
            continue
        p, q = from_state
        expected = {}
        for s in range(smax + 1):
            for r in range(p + s + 1):
                if r == 0 and s > 0:
                    continue
                state = (r, s) if r > 0 else (0, 0)
                prob = float(transition_prob(f, (p, q), state))
                if prob > 0:
                    expected[state] = expected.get(state, 0.0) + prob
        deficit = max(deficit, 1.0 - sum(expected.values()))
        tests.append((census.row(from_state), expected))
    counters["kernel.transition_prob.row_mass_deficit_max"] = deficit
    chi_square_family(api, tests, checks, counters, "census row vs kernel")

    probe = api["stats.chi_square"](*SPARSE_POOL_PROBE)
    counters["stats.chi_square.sparse_pool_failures"] = int(
        probe.cells > SPARSE_POOL_PROBE_CELLS)
    return vertices


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def run_exact_tables(api, sizes, seed, model, tracer, checks, counters):
    from gwprofile import builtin_model

    order = sizes["nu_order"]
    nu = api["genfun.nu_table"](model, order)
    counters["genfun.nu_table.order"] = order
    closed = api["genfun.closed_form_series"](model, order)
    checks.check(tuple(nu) == tuple(closed.coeffs), f"nu_table({order}) == closed form")

    V = sizes["chain_V"]
    joint_table = api["genfun.joint_table"]
    cond = api["kernel.cond_transition_prob"]
    ftilde = joint_table(model, V + 1, V + 1, V)
    law = api["oracle.exact_chain_law"](V)
    rep = api["oracle.verify_markov_exact"](law, V, transition=lambda s, t: cond(ftilde, V, s, t))
    n_checked = rep.histories_checked + rep.transitions_checked
    checks.check(rep.ok and n_checked > 0, f"chain law V={V}: {rep.discrepancies[:2]}", n_checked)
    counters["oracle.exact_chain_law.paths"] = len(law)
    counters["oracle.verify_markov_exact.histories"] = rep.histories_checked
    counters["oracle.verify_markov_exact.transitions"] = rep.transitions_checked

    W = sizes["joint_V"]
    big = joint_table(model, W + 1, W + 1, W)
    counters["genfun.joint_table.cells"] = (V + 2) ** 2 * (V + 1) + (W + 2) ** 2 * (W + 1)
    checks.check(
        all(big[p][q][:V + 1] == ftilde[p][q] for p in range(V + 2) for q in range(V + 2)),
        f"joint_table V={W} restricts to joint_table V={V}",
    )

    e = sizes["size_mass_edges"]
    mass = api["oracle.size_mass"](builtin_model("geom-pm1"), e)
    checks.check(mass == Fraction(catalan(e), 2 ** (2 * e + 1)), f"size_mass(geom-pm1, {e})")

    # The chain-law oracle covers every incomplete-binary tree with V edges:
    # Catalan(V + 1) trees of V + 1 vertices each.
    return catalan(V + 1) * (V + 1)


def run_maps(api, sizes, seed, sampler, tracer, checks, counters):
    sample_quadrangulation = api["sampler.sample_quadrangulation"]
    map_to_tree = api["maps.map_to_tree"]
    tree_to_map = api["maps.tree_to_map"]
    ball_profile = api["maps.ball_profile"]
    verify_relations = api["maps.verify_profile_relations"]
    # ball_profile rebuilds the ball for every radius up to the point's
    # eccentricity k_max, each rebuild walking every dart, so it costs about
    # darts * k_max; most of the time goes there, so that is the budget.
    vertices = 0
    i = 0
    while counters["ball_work"] < sizes["ball_work_budget"]:
        tracer.item = i
        q = sample_quadrangulation(sampler)
        counters["sampler.sample_quadrangulation.darts"] += len(q.darts)
        t, bit = map_to_tree(q)
        vertices += t.n_vertices
        q2 = tree_to_map(t, bit)
        checks.check(
            q2.alpha == q.alpha and q2.sigma == q.sigma and q2.root_dart == q.root_dart
            and q2.pointed_vertex == q.pointed_vertex,
            f"map {i}: tree_to_map(map_to_tree)",
        )
        summary = ball_profile(q)
        checks.check(all(p % 2 == 0 for p in summary.P), f"map {i}: even ball perimeters")
        counters["ball_work"] += len(q.darts) * summary.k_max
        if i % sizes["relations_every"] == 0:
            rep = verify_relations(q)
            checks.check(rep.ok, f"map {i}: profile relations {rep.mismatches[:2]}")
        i += 1
    tracer.item = None
    counters["trees"] = i
    counters["sampler.sample_quadrangulation.vertices"] = vertices
    return vertices


RUN = {
    "mc-trees": run_mc_trees,
    "mc-census": run_mc_census,
    "exact-tables": run_exact_tables,
    "maps": run_maps,
}
