"""Layer boundaries of the benchmark: the public calls it makes, and spans.

``api(tracer)`` maps each span name ``<module>.<function>`` to the
gwprofile callable.  Untraced, the callables are the library's own, so
an untraced run pays nothing for tracing; traced, each is wrapped to
record one span per call.  Spans are recorded from the benchmark, around
the calls into each layer, not inside the program.

``series`` and ``model`` are reached only through ``genfun`` and
``oracle``, and ``cli`` is not called (the workloads reproduce its
pipelines through the library so the layer split stays visible).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def layer_callables():
    from gwprofile import excursion, genfun, kernel, maps, oracle, sampler, stats, tree

    return {
        "sampler.sample_tree": sampler.Sampler.sample_tree,
        "sampler.sample_incomplete_binary_profile": sampler.sample_incomplete_binary_profile,
        "sampler.sample_quadrangulation": sampler.Sampler.sample_quadrangulation,
        "tree.edge_profile": tree.edge_profile,
        "tree.encode": tree.encode,
        "tree.decode": tree.decode,
        "excursion.decompose": excursion.decompose,
        "excursion.reconstruct": excursion.reconstruct,
        "genfun.nu_table": genfun.nu_table,
        "genfun.closed_form_series": genfun.closed_form_series,
        "genfun.f_table": genfun.f_table,
        "genfun.joint_table": genfun.joint_table,
        "kernel.transition_prob": kernel.transition_prob,
        "kernel.cond_transition_prob": kernel.cond_transition_prob,
        "oracle.exact_chain_law": oracle.exact_chain_law,
        "oracle.verify_markov_exact": oracle.verify_markov_exact,
        "oracle.size_mass": oracle.size_mass,
        "maps.ball_profile": maps.ball_profile,
        "maps.map_to_tree": maps.map_to_tree,
        "maps.tree_to_map": maps.tree_to_map,
        "maps.verify_profile_relations": maps.verify_profile_relations,
        "stats.add_profile_transitions": stats.add_profile_transitions,
        "stats.chi_square": stats.chi_square,
    }


class Tracer:
    """In-memory spans: [name, start, end, parent span index, item index].

    ``item`` is the index of the workload item (tree, map) being
    processed, or None outside per-item loops.
    """

    def __init__(self):
        self.spans = []
        self.item = None
        self._open = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def api(tracer=None):
    calls = layer_callables()
    if tracer is None:
        return calls
    return {name: tracer.wrap(name, fn) for name, fn in calls.items()}


def span_stats(spans):
    """Per span name: calls, busy seconds, and self seconds (busy minus children)."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
    return calls, busy, self_s


# Per-layer metrics: name -> (unit, better, value from (calls, busy, self, counters)).
# Work counts come from the workload's counters; a layer a workload does not
# call reads 0 there.
def _calls(n):
    return ("count", "higher", lambda c, b, s, k: c[n])


def _busy(n):
    return ("s", "lower", lambda c, b, s, k: b[n])


def _count(key, better="higher", unit="count"):
    return (unit, better, lambda c, b, s, k: k.get(key, 0))


def _per_s(key, n, unit):
    return (unit, "higher", lambda c, b, s, k: k.get(key, 0) / b[n] if b[n] > 0 else 0.0)


# Vertices of the trees sample_tree returned, which the tree layers process.
TREE_V = "tree_vertices"

PER_LAYER = {}
for _n in ("sampler.sample_tree", "sampler.sample_incomplete_binary_profile"):
    PER_LAYER.update({
        f"{_n}.calls": _calls(_n),
        f"{_n}.busy_s": _busy(_n),
        f"{_n}.vertices": _count(f"{_n}.vertices"),
        f"{_n}.vertices_per_s": _per_s(f"{_n}.vertices", _n, "vertices/s"),
        f"{_n}.capped": _count(f"{_n}.capped", "lower"),
    })
PER_LAYER.update({
    "sampler.sample_quadrangulation.calls": _calls("sampler.sample_quadrangulation"),
    "sampler.sample_quadrangulation.busy_s": _busy("sampler.sample_quadrangulation"),
    "sampler.sample_quadrangulation.darts": _count("sampler.sample_quadrangulation.darts"),
    "tree.edge_profile.calls": _calls("tree.edge_profile"),
    "tree.edge_profile.busy_s": _busy("tree.edge_profile"),
    "tree.edge_profile.vertices_per_s": _per_s(TREE_V, "tree.edge_profile", "vertices/s"),
    "tree.encode.busy_s": _busy("tree.encode"),
    "tree.decode.busy_s": _busy("tree.decode"),
    "tree.decode.deep_path_failures": _count("tree.decode.deep_path_failures", "lower"),
    "excursion.decompose.calls": _calls("excursion.decompose"),
    "excursion.decompose.busy_s": _busy("excursion.decompose"),
    "excursion.decompose.vertices_per_s":
        _per_s(TREE_V, "excursion.decompose", "vertices/s"),
    "excursion.decompose.forest_vertices": _count("excursion.decompose.forest_vertices"),
    "excursion.reconstruct.busy_s": _busy("excursion.reconstruct"),
    "excursion.reconstruct.vertices_per_s":
        _per_s(TREE_V, "excursion.reconstruct", "vertices/s"),
    "genfun.nu_table.busy_s": _busy("genfun.nu_table"),
    "genfun.nu_table.order": _count("genfun.nu_table.order"),
    "genfun.closed_form_series.busy_s": _busy("genfun.closed_form_series"),
    "genfun.f_table.busy_s": _busy("genfun.f_table"),
    "genfun.f_table.cells": _count("genfun.f_table.cells"),
    "genfun.joint_table.busy_s": _busy("genfun.joint_table"),
    "genfun.joint_table.cells": _count("genfun.joint_table.cells"),
    "kernel.transition_prob.calls": _calls("kernel.transition_prob"),
    "kernel.transition_prob.busy_s": _busy("kernel.transition_prob"),
    "kernel.transition_prob.row_mass_deficit_max":
        _count("kernel.transition_prob.row_mass_deficit_max", "lower", "1"),
    "kernel.cond_transition_prob.calls": _calls("kernel.cond_transition_prob"),
    "kernel.cond_transition_prob.busy_s": _busy("kernel.cond_transition_prob"),
    "oracle.exact_chain_law.busy_s": _busy("oracle.exact_chain_law"),
    "oracle.exact_chain_law.paths": _count("oracle.exact_chain_law.paths"),
    "oracle.verify_markov_exact.busy_s": _busy("oracle.verify_markov_exact"),
    "oracle.verify_markov_exact.self_s":
        ("s", "lower", lambda c, b, s, k: s["oracle.verify_markov_exact"]),
    "oracle.verify_markov_exact.histories": _count("oracle.verify_markov_exact.histories"),
    "oracle.verify_markov_exact.transitions": _count("oracle.verify_markov_exact.transitions"),
    "oracle.size_mass.busy_s": _busy("oracle.size_mass"),
    "maps.ball_profile.calls": _calls("maps.ball_profile"),
    "maps.ball_profile.busy_s": _busy("maps.ball_profile"),
    "maps.ball_profile.darts_per_s":
        _per_s("sampler.sample_quadrangulation.darts", "maps.ball_profile", "darts/s"),
    "maps.map_to_tree.busy_s": _busy("maps.map_to_tree"),
    "maps.tree_to_map.busy_s": _busy("maps.tree_to_map"),
    "maps.verify_profile_relations.calls": _calls("maps.verify_profile_relations"),
    "maps.verify_profile_relations.busy_s": _busy("maps.verify_profile_relations"),
    "stats.add_profile_transitions.busy_s": _busy("stats.add_profile_transitions"),
    "stats.add_profile_transitions.transitions":
        _count("stats.add_profile_transitions.transitions"),
    "stats.chi_square.calls": _calls("stats.chi_square"),
    "stats.chi_square.busy_s": _busy("stats.chi_square"),
    "stats.chi_square.rows_tested": _count("stats.chi_square.rows_tested"),
    "stats.chi_square.sparse_pool_failures":
        _count("stats.chi_square.sparse_pool_failures", "lower"),
})


def per_layer_metrics(spans, counters):
    calls, busy, self_s = span_stats(spans)
    return {name: {"value": fn(calls, busy, self_s, counters), "unit": unit}
            for name, (unit, _, fn) in PER_LAYER.items()}
