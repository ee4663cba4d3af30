"""Command-line entry point tying the modules into reproducible experiments.

Subcommands: sample, decompose, genfun, kernel, verify, maps, stats.
Exit codes: 0 success, 1 verification failure or runtime error, 2 usage
error.  Every run emits a RunManifest (JSON) alongside its results:
next to the output file when --out is given, on standard error
otherwise.  Each ``_cmd_*`` returns its exit code and the manifest
fields it knows (``outputs`` too, when they are not just ``--out``);
:func:`main` adds the subcommand, outputs and argv and emits the
manifest once.  `--workers N` only partitions work; outputs are
deterministic and independent of N because every sampled item gets its
own seed stream (the item index).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import (
    ConfigurationError,
    DomainError,
    GWProfileError,
    ResourceLimitError,
    TreeParseError,
)
from .model import builtin_model, resolve_model
from .tree import decode, edge_profile, encode
from .sampler import Sampler, SamplerConfig

_BINARY = "builtin:incomplete-binary"
_MAP_MODEL = "builtin:geom-pm01"


@dataclass
class RunManifest:
    """Self-description of a run, sufficient to regenerate its outputs."""

    subcommand: str
    model: Optional[str] = None
    seed: Optional[int] = None
    caps: Dict[str, int] = field(default_factory=dict)
    outputs: List[str] = field(default_factory=list)
    tool_version: str = __version__
    argv: List[str] = field(default_factory=list)

    def emit(self, out: Optional[str]) -> None:
        """Write ``<out>.manifest.json``, or to standard error without --out."""
        text = json.dumps(asdict(self), sort_keys=True)
        if out:
            with open(out + ".manifest.json", "w") as fh:
                fh.write(text + "\n")
        else:
            print("gwprofile: manifest: " + text, file=sys.stderr)


def _out(path: Optional[str]):
    """For a ``with`` block: the file at ``path``, closed on leaving, or stdout."""
    return open(path, "w", newline="") if path else nullcontext(sys.stdout)


@contextmanager
def _unlimited_digits():
    """For a ``with`` block: no int-to-string digit limit, where Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    set_limit = sys.set_int_max_str_digits if limit else lambda _: None
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _checked(kind, ok, bound: str):
    """An argparse type: a ``kind`` value satisfying ``ok``, else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _int_at_least(lo: int):
    return _checked(int, lambda value: value >= lo, f">= {lo}")


def _readers(table: Dict[str, dict], flag: str) -> str:
    """The modes of ``table`` whose flags include ``flag``, as "A, B or C"."""
    *rest, last = [mode for mode, flags in table.items() if flag in flags]
    return f"{', '.join(rest)} or {last}" if rest else last


def _mode_flags(args, option: str, mode, table: Dict[str, dict]) -> dict:
    """The flags ``table[mode]`` lists, each as given or else its default.

    ``table`` maps each mode (a value of ``option``) to the ``{flag: default}``
    it reads.  A flag the chosen mode would ignore is a usage error, "--X
    applies only to <option>A, B or C", checked in the parser's order.
    """
    reads = table.get(mode, {})
    known = {flag for flags in table.values() for flag in flags}
    for flag in vars(args):
        if flag in known and flag not in reads and getattr(args, flag) is not None:
            raise ConfigurationError(
                f"--{flag.replace('_', '-')} applies only to "
                f"{option}{_readers(table, flag)}"
            )
    return {
        flag: default if getattr(args, flag) is None else getattr(args, flag)
        for flag, default in reads.items()
    }


def _map_items(worker, task: tuple, count: int, workers: int) -> list:
    """``worker(task + (lo, hi))`` for consecutive chunks [lo, hi) of the
    items 0 .. count - 1, one chunk per worker process, results in item
    order.  A single chunk runs in this process."""
    size = -(-count // workers)
    tasks = [task + (lo, min(lo + size, count)) for lo in range(0, count, size)]
    if len(tasks) == 1:
        return [worker(tasks[0])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


# -- sample -----------------------------------------------------------------


def _cmd_sample(args) -> Tuple[int, dict]:
    model = resolve_model(args.model)
    vertex_cap, rejection_cap = args.vertex_cap, args.rejection_cap
    fields = {
        "model": args.model,
        "seed": args.seed,
        "caps": {"vertex_cap": vertex_cap, "rejection_cap": rejection_cap},
    }
    kinds = {"conditioned": {"edges": None}, "excursion": {"sign": "+"}}
    read = _mode_flags(args, "--kind ", args.kind, kinds)
    edges, sign = read.get("edges"), -1 if read.get("sign") == "-" else 1
    if args.kind == "conditioned" and edges is None:
        raise ConfigurationError("--edges is required for --kind conditioned")

    if args.kind == "quadrangulation":
        if not args.out:
            raise ConfigurationError(
                "--out prefix is required for --kind quadrangulation"
            )
        if model.key != builtin_model("geom-pm01").key:
            raise ConfigurationError(
                f"--kind quadrangulation requires --model {_MAP_MODEL}"
            )

    task = (args.model, args.kind, args.seed, vertex_cap, rejection_cap, edges, sign)
    parts = _map_items(_sample_items_worker, task, args.count, args.workers)
    if args.kind == "quadrangulation":
        from .maps import save_map

        outputs = fields["outputs"] = []
        for maps, capped in parts:
            for q in maps:
                outputs.append(f"{args.out}.{len(outputs)}.csv")
                save_map(q, outputs[-1])
            if capped:
                return _capped_item(*capped), fields
        return 0, fields
    with _out(args.out) as fh:
        for lines, capped in parts:
            for line in lines:
                fh.write(line + "\n")
            if capped:
                return _capped_item(*capped), fields
    return 0, fields


def _capped_item(i: int, exc: ResourceLimitError) -> int:
    """Report the first item that passed a cap, after the items before it
    were written; the exit code of the run."""
    print(f"gwprofile: error: ResourceLimitError: item {i}: {exc}", file=sys.stderr)
    return 1


def _sample_items_worker(task) -> Tuple[list, Optional[tuple]]:
    """The items lo .. hi - 1, up to the first that passes a cap, and
    (index, error) of that item, or None.  Trees and excursions come
    encoded, quadrangulations as maps."""
    (spec, kind, seed, vertex_cap, rejection_cap, edges, sign, lo, hi) = task
    model = resolve_model(spec)
    out = []
    for i in range(lo, hi):
        cfg = SamplerConfig(
            seed=seed, stream=i, vertex_cap=vertex_cap, rejection_cap=rejection_cap
        )
        s = Sampler(model, cfg)
        try:
            if kind == "tree":
                out.append(encode(s.sample_tree()))
            elif kind == "excursion":
                out.append(encode(s.sample_excursion(sign)))
            elif kind == "quadrangulation":
                out.append(s.sample_quadrangulation())
            else:
                out.append(encode(s.sample_conditioned(edges)))
        except ResourceLimitError as exc:
            return out, (i, exc)
    return out, None


# -- decompose ---------------------------------------------------------------


def _forest_shape(forest) -> str:
    """The forest as JSON nested lists of children, one list per root.

    Written with an explicit stack, so the depth of the forest is not
    bounded by the recursion limit.
    """
    out = ["["]
    stack = [(forest.roots, 0)]  # (sibling list, index of the next sibling)
    while stack:
        kids, i = stack.pop()
        if i == len(kids):
            out.append("]")
            continue
        if i:
            out.append(", ")
        stack.append((kids, i + 1))
        out.append("[")
        stack.append((forest.children[kids[i]], 0))
    return "".join(out)


def _cmd_decompose(args) -> Tuple[int, dict]:
    from .excursion import decompose

    if (args.tree is None) == (args.infile is None):
        raise ConfigurationError("provide exactly one of --tree or --in")
    if args.tree is not None:
        texts = [args.tree]
    else:
        with open(args.infile) as fh:
            texts = [line.strip() for line in fh if line.strip()]
    with _out(args.out) as fh:
        for text in texts:
            d = decompose(decode(text), args.level)
            # A forest vertex's attachment slot is its rank among its siblings.
            slot = [0] * d.forest.n_vertices
            for kids in (d.forest.roots, *d.forest.children):
                for i, c in enumerate(kids):
                    slot[c] = i
            # Keys in sorted order, as json.dumps(record, sort_keys=True)
            # would write them; forest_shape is written without recursion.
            record = {
                "attachments": json.dumps(slot),
                "decorations": json.dumps([encode(e) for e in d.forest.decorations]),
                "forest_shape": _forest_shape(d.forest),
                "level": json.dumps(d.level),
                "root_component": json.dumps(encode(d.root_component)),
            }
            fh.write("{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}\n")
    return 0, {}


# -- genfun -------------------------------------------------------------------


def _cmd_genfun(args) -> Tuple[int, dict]:
    from .genfun import f_table, nu_table

    read = _mode_flags(
        args, "--what ", args.what, {"nu": {"order": 40}, "f": {"pmax": 5, "qmax": 10}}
    )
    model = resolve_model(args.model)
    with _out(args.out) as fh, _unlimited_digits():  # ν_k outgrows 4,300 digits
        w = csv.writer(fh)
        if args.what == "nu":
            nu = nu_table(model, read["order"])
            w.writerow(["k", "nu_k"])
            for k, v in enumerate(nu):
                w.writerow([k, str(v)])
        else:
            pmax, qmax = read["pmax"], read["qmax"]
            table = f_table(nu_table(model, qmax), pmax, qmax)
            w.writerow(["p", "q", "f_p_q"])
            for p in range(pmax + 1):
                for q in range(qmax + 1):
                    w.writerow([p, q, str(table[p][q])])
    return 0, {"model": args.model}


# -- kernel -------------------------------------------------------------------


def _parse_state(text: str, V: Optional[int]) -> Tuple[int, ...]:
    """A --from state, p,q (or p,q,v under --edges V); a bad one is a usage error."""
    from . import kernel as K

    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigurationError(f"state {text!r} must be comma-separated integers")
    parts = 2 if V is None else 3
    if len(vals) != parts:
        raise ConfigurationError(f"state {text!r} must have {parts} components")
    try:
        return K.check_state(*vals) if V is None else K.check_cond_state(*vals, V)
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from None


def _cmd_kernel(args) -> Tuple[int, dict]:
    from . import kernel as K
    from .genfun import f_table, joint_table, nu_table

    model = builtin_model("incomplete-binary")
    smax, V = args.smax, args.edges
    state = _parse_state(args.from_state, V)
    if V is None:
        p, q = state
        # The row reads f_p(q), and f_r(s) for r <= p + smax, s <= smax.
        q_top = max(q, smax)
        f = f_table(nu_table(model, q_top), p + smax, q_top)
        header, row = ["r", "s"], K.free_row(f, state, smax)
    else:
        ftilde = joint_table(model, V + 1, V + 1, V)
        try:
            row = K.cond_row(ftilde, V, state, smax)
        except DomainError as exc:  # the state is checked: it can only be unreachable
            raise ConfigurationError(str(exc)) from None
        header = ["r", "s", "w"]
    with _out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow([*header, "probability"])
        for to, prob in row:
            w.writerow([*to, str(prob)])
    return 0, {"model": _BINARY}


# -- verify -------------------------------------------------------------------
# A suite yields (case, got, want) per case and may return counts for its
# summary line; _run_cases alone compares, counts and reports.


def _counting_lemma(max_pq):
    import math

    from .oracle import _compositions, enumerate_bicoloured_forests

    for p in range(1, max_pq + 1):
        for q in range(0, max_pq - p + 1):
            for n in range(1, p + 1):
                for n_minus in _compositions(p - n, q):
                    for n_plus in _compositions(q, p):
                        yield (
                            f"n={n} n_plus={n_plus} n_minus={n_minus}",
                            enumerate_bicoloured_forests(n, n_plus, n_minus),
                            math.factorial(q) * math.factorial(p - 1) * n,
                        )


def _joint_law(max_p, max_s):
    from .genfun import f_table, nu_table
    from .kernel import _weight
    from .oracle import enumerate_marked_forests

    # Cell (p, s) reads ν up to s and f_r(s) for r <= p + s.
    nu = nu_table(builtin_model("incomplete-binary"), max_s)
    f = f_table(nu, max_p + max_s, max_s)
    for p in range(1, max_p + 1):
        for s in range(0, max_s + 1):
            law = enumerate_marked_forests(nu, p, s)
            for q in range(p + s + 1):
                for r in range(p + s + 1):
                    got = law.get((q, r), Fraction(0))
                    yield f"p={p} s={s} (q,r)=({q},{r})", got, _weight(p, q, r, s) * f[r][s]


def _chain_law(edges):
    from .genfun import joint_table
    from .kernel import cond_transition_prob
    from .oracle import exact_chain_law, verify_markov_exact

    ftilde = joint_table(builtin_model("incomplete-binary"), edges + 1, edges + 1, edges)
    kernel = partial(cond_transition_prob, ftilde, edges)
    rep = verify_markov_exact(exact_chain_law(edges), edges, transition=kernel)
    yield f"V={edges}", rep.discrepancies, []
    return dict(histories=rep.histories_checked, transitions=rep.transitions_checked,
                discrepancies=len(rep.discrepancies))


def _profile_count(max_edges):
    from .kernel import count_profile
    from .oracle import enumerate_trees

    model = builtin_model("incomplete-binary")
    for e in range(0, max_edges + 1):
        groups: Dict[tuple, int] = {}
        for t, _ in enumerate_trees(model, e).items:
            halves = edge_profile(t).halves()
            groups[halves] = groups.get(halves, 0) + 1
        for (plus, check), want in sorted(groups.items()):
            yield f"{plus} {check}", count_profile(plus, check), want


def _decomposition_roundtrip(model, max_edges):
    from .excursion import decompose, reconstruct
    from .model import BUILTIN_IDS
    from .oracle import enumerate_trees

    # resolved now, before the output is opened: a bad --model writes nothing
    models = [resolve_model(model)] if model else [builtin_model(k) for k in BUILTIN_IDS]
    return (
        (f"{encode(t)} m={m}", reconstruct(decompose(t, m)), t)
        for each in models
        for e in range(0, max_edges + 1)
        for t, _ in enumerate_trees(each, e).items
        for span in [max([abs(l) for l in t.labels] + [1])]
        for m in [*range(1, span + 1), *range(-span, 0)]
    )


def _schaeffer_roundtrip(max_edges):
    from .maps import map_to_tree, tree_to_map, verify_profile_relations
    from .oracle import enumerate_trees

    model = builtin_model("geom-pm01")
    for e in range(1, max_edges + 1):
        for t, _ in enumerate_trees(model, e).items:
            name = encode(t)
            for bit in (0, 1):
                q = tree_to_map(t, bit)
                got = map_to_tree(q), verify_profile_relations(q).mismatches
                yield f"{name} bit={bit}", got, ((t, bit), ())


def _kemperman(p, s):
    from .genfun import nu_table
    from .oracle import kemperman_check

    cells = kemperman_check(nu_table(builtin_model("incomplete-binary"), s + 2), p, s)
    for k, (lhs, rhs) in sorted(cells.items()):
        yield f"p={p} s={s} {k}", lhs, rhs


_SUITES = {  # name: (cases, summary after "PASS <name>", {flag: default})
    "counting-lemma": (_counting_lemma, ": {cases} tuples checked", {"max_pq": 7}),
    "joint-law": (_joint_law, ": {cases} cells checked", {"max_p": 3, "max_s": 4}),
    "chain-law": (
        _chain_law,
        " V={edges}: {histories} histories, {transitions} transitions, "
        "{discrepancies} discrepancies",
        {"edges": 5},
    ),
    "profile-count": (_profile_count, ": {cases} profiles checked", {"max_edges": 4}),
    "decomposition-roundtrip": (
        _decomposition_roundtrip, ": {cases} cases checked", {"model": None, "max_edges": 4}
    ),
    "schaeffer-roundtrip": (_schaeffer_roundtrip, ": {cases} cases checked", {"max_edges": 4}),
    "kemperman": (_kemperman, ": {cases} cells checked", {"p": 2, "s": 3}),
}
_SUITE_FLAGS = {name: flags for name, (_, _, flags) in _SUITES.items()}


def _run_cases(fh, name: str, cases, summary: str, counts: dict) -> int:
    """Write to ``fh`` one ``FAIL <name> <case>: <got> != <want>`` line per
    failing case, then the ``PASS``/``FAIL`` line: ``name``, then ``summary``
    filled in from ``counts``, ``cases`` (the case count) and the counts
    the generator returns.  Returns the exit code."""
    counts["cases"] = failed = 0
    while True:
        try:
            case, got, want = next(cases)
        except StopIteration as done:
            counts.update(done.value or {})
            break
        counts["cases"] += 1
        if got != want:
            failed += 1
            fh.write(f"FAIL {name} {case}: {got} != {want}\n")
    fh.write(f"{'FAIL' if failed else 'PASS'} {name}{summary.format(**counts)}\n")
    return 1 if failed else 0


def _cmd_verify(args) -> Tuple[int, dict]:
    suite, summary, _ = _SUITES[args.suite]
    counts = _mode_flags(args, "--suite ", args.suite, _SUITE_FLAGS)
    cases = suite(**counts)
    with _out(args.out) as fh:
        code = _run_cases(fh, args.suite, cases, summary, counts)
    return code, {"model": args.model}


# -- maps ---------------------------------------------------------------------


def _profile_relations(q, name: str):
    """The map ``q``'s profile relations as one case, named ``name``."""
    from .maps import verify_profile_relations

    rep = verify_profile_relations(q)
    yield name, rep.mismatches, ()
    return dict(checks=rep.checked, mismatches=len(rep.mismatches))


def _cmd_maps(args) -> Tuple[int, dict]:
    from .maps import ball_profile, load_map, map_to_tree, tree_to_map, write_map

    if (args.from_tree is None) == (args.infile is None):
        raise ConfigurationError("provide exactly one of --from-tree or --in")
    mode = "--in" if args.from_tree is None else "--from-tree"
    read = _mode_flags(args, "", mode, {
        "--from-tree": {"orientation": 0},
        "--in": {"to_tree": False, "profile": False, "check": False},
    })
    exit_code = 0
    if mode == "--from-tree":
        q = tree_to_map(decode(args.from_tree), read["orientation"])
        with _out(args.out) as fh:
            write_map(q, fh)
    else:
        q = load_map(args.infile)
        with _out(args.out) as fh:
            if read["to_tree"]:
                t, bit = map_to_tree(q)
                fh.write(f"{encode(t)}\t{bit}\n")
            if read["profile"]:
                summary = ball_profile(q)
                w = csv.writer(fh)
                w.writerow(["k", "C_k", "P_k"])
                for k in range(1, summary.k_max + 1):
                    w.writerow([k, summary.C[k - 1], summary.P[k - 1]])
            if read["check"]:
                exit_code = _run_cases(
                    fh, "profile-relations", _profile_relations(q, args.infile),
                    ": {checks} checks, {mismatches} mismatches", {},
                )
    return exit_code, {"model": _MAP_MODEL}


# -- stats --------------------------------------------------------------------


def _census_worker(task):
    (spec, seed, vertex_cap, max_level, lo, hi) = task
    from .sampler import make_rng, sample_incomplete_binary_profile
    from .stats import TransitionCensus, add_profile_transitions

    census = TransitionCensus()
    capped = 0
    model = resolve_model(spec)
    fast = model.key == builtin_model("incomplete-binary").key
    for i in range(lo, hi):
        cfg = SamplerConfig(seed=seed, stream=i, vertex_cap=vertex_cap)
        if fast:
            prof = sample_incomplete_binary_profile(make_rng(cfg), vertex_cap)
            if prof is None:
                capped += 1
                continue
            xp, xm, _, _ = prof
            xpd = {k: v for k, v in enumerate(xp) if k >= 1 and v}
            xmd = {k: v for k, v in enumerate(xm) if k >= 1 and v}
        else:
            try:
                t = Sampler(model, cfg).sample_tree()
            except ResourceLimitError:
                capped += 1
                continue
            prof = edge_profile(t)
            xpd, xmd = prof.up, prof.down
        top = max(list(xpd) + list(xmd) + [1])
        levels = range(1, min(top, max_level) + 1)
        add_profile_transitions(census, xpd, xmd, levels)
    return census, capped


def _cmd_stats(args) -> Tuple[int, dict]:
    from .stats import TransitionCensus, bonferroni, chi_square

    mode = "--test-kernel" if args.test_kernel else None
    read = _mode_flags(args, "", mode, {"--test-kernel": {"alpha": 0.001, "min_visits": 500}})
    binary = builtin_model("incomplete-binary").key
    if args.test_kernel and resolve_model(args.model).key != binary:
        raise ConfigurationError(
            "--test-kernel requires --model builtin:incomplete-binary"
        )
    task = (args.model, args.seed, args.vertex_cap, args.max_level)
    census = TransitionCensus()
    capped = 0
    for part, c in _map_items(_census_worker, task, args.count, args.workers):
        census.merge(part)
        capped += c

    exit_code = 0
    with _out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "from_p", "from_q", "to_p", "to_q", "count"])
        for from_state in census.rows():
            for to_state, n in sorted(census.row(from_state).items()):
                w.writerow(["census", *from_state, *to_state, n])
        if args.test_kernel:
            from . import kernel as K
            from .genfun import f_table, nu_table

            smax = 30  # kernel rows stop at s = smax
            tested = [
                state
                for state in census.rows()
                if state != (0, 0) and census.row_total(state) >= read["min_visits"]
            ]
            for p, q in tested:
                far = [to for to in census.row((p, q)) if to[1] > smax]
                if far:
                    raise DomainError(
                        f"row {p},{q} stepped to {far[0][0]},{far[0][1]}, beyond "
                        f"the kernel rows' s <= {smax}"
                    )
            # Row (p, q) reads f_p(q) and f_r(s) for r <= p + smax, s <= smax.
            p_top = max((p for p, _ in tested), default=0)
            q_top = max([smax] + [q for _, q in tested])
            nu = [float(x) for x in nu_table(builtin_model("incomplete-binary"), q_top)]
            f = f_table(nu, p_top + smax, q_top)
            w.writerow(["kind", "from_p", "from_q", "statistic", "dof", "p_value"])
            p_values = []
            for from_state in tested:
                res = chi_square(census.row(from_state), dict(K.free_row(f, from_state, smax)))
                p_values.append(res.p_value)
                w.writerow([
                    "test", *from_state, f"{res.statistic:.6g}", res.dof,
                    "" if res.p_value is None else f"{res.p_value:.6g}",
                ])
            if not bonferroni(p_values, read["alpha"]):
                exit_code = 1
        if capped:
            w.writerow(["capped", "", "", "", "", capped])
    return exit_code, {
        "model": args.model,
        "seed": args.seed,
        "caps": {"vertex_cap": args.vertex_cap},
    }


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwprofile",
        description="Labelled Galton-Watson trees, edge-profile chains, and "
        "quadrangulation ball profiles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    defaults = SamplerConfig()
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="sample trees, excursions, quadrangulations")
    p.add_argument("--model", required=True, help="builtin:<id> or file:<path>")
    p.add_argument(
        "--kind",
        choices=["tree", "excursion", "conditioned", "quadrangulation"],
        default="tree",
    )
    p.add_argument("--count", type=_int_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertex-cap", type=_int_at_least(1), default=defaults.vertex_cap)
    p.add_argument(
        "--rejection-cap", type=_int_at_least(1), default=defaults.rejection_cap
    )
    p.add_argument("--edges", type=_int_at_least(0), help="for --kind conditioned")
    p.add_argument("--sign", choices=["+", "-"], help="for --kind excursion (default +)")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="excursion-forest decomposition of trees")
    p.add_argument("--tree", help="tree in the increment grammar")
    p.add_argument("--in", dest="infile", help="file with one tree per line")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("genfun", help="first-hit offspring law and f tables")
    p.add_argument("--model", required=True)
    p.add_argument("--what", choices=["nu", "f"], default="nu")
    p.add_argument("--order", type=_int_at_least(0), help="for --what nu (default 40)")
    p.add_argument("--pmax", type=_int_at_least(0), help="for --what f (default 5)")
    p.add_argument("--qmax", type=_int_at_least(0), help="for --what f (default 10)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_genfun)

    p = sub.add_parser(
        "kernel", help="edge-profile chain kernel rows (incomplete-binary model)"
    )
    p.add_argument(
        "--from", dest="from_state", required=True, help="p,q (or p,q,v with --edges)"
    )
    p.add_argument("--smax", type=_int_at_least(0), default=10)
    p.add_argument("--edges", type=_int_at_least(0), help="condition on V edges")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify", help="named exact verification suites")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    # --model first: a usage error reports it before the size flags
    p.add_argument(
        "--model", help="for --suite decomposition-roundtrip (default: every builtin)"
    )
    # each suite counts up to its bound from 0 or 1: no minimum checks nothing
    for flag, low in (
        ("max_pq", 1), ("max_p", 1), ("max_s", 0), ("edges", 1), ("max_edges", 1),
        ("p", 1), ("s", 0),
    ):
        default = next(f[flag] for f in _SUITE_FLAGS.values() if flag in f)
        p.add_argument(
            "--" + flag.replace("_", "-"), type=_int_at_least(low),
            help=f"for --suite {_readers(_SUITE_FLAGS, flag)} (default {default})",
        )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("maps", help="tree <-> quadrangulation bijection and profiles")
    p.add_argument("--from-tree", dest="from_tree")
    p.add_argument("--orientation", type=int, choices=[0, 1])
    p.add_argument("--in", dest="infile", help="map CSV file")
    p.add_argument("--to-tree", dest="to_tree", action="store_true", default=None)
    p.add_argument("--profile", action="store_true", default=None)
    p.add_argument("--check", action="store_true", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_maps)

    p = sub.add_parser("stats", help="Monte Carlo transition census and tests")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertex-cap", type=_int_at_least(1), default=defaults.vertex_cap)
    p.add_argument("--max-level", type=_int_at_least(1), default=10**9)
    p.add_argument(
        "--min-visits", type=_int_at_least(0), help="for --test-kernel (default 500)"
    )
    p.add_argument(
        "--alpha",  # 0 < nan < 1 is false, so nan is refused too
        type=_checked(float, lambda a: 0 < a < 1, "in (0, 1)"),
        help="family-wise level of --test-kernel: Bonferroni over the rows tested"
        " (default 0.001)",
    )
    p.add_argument("--test-kernel", dest="test_kernel", action="store_true")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        code, fields = args.func(args)
        fields.setdefault("outputs", [args.out] if args.out else [])
        RunManifest(args.subcommand, argv=argv, **fields).emit(args.out)
        return code
    except (ConfigurationError, TreeParseError) as exc:
        print(f"gwprofile: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (GWProfileError, OSError, RecursionError, MemoryError, ValueError) as exc:
        # Unreadable or unwritable files, undecodable input, and inputs too
        # deep or too large to process: one line, never a traceback.
        print(f"gwprofile: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
