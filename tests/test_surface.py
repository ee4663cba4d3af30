"""The package's public surface, and every private helper, has callers.

Every public top-level function or class in ``src/gwprofile``, every
public method of a public class, every private top-level function and
every private method (dunders aside) must be referenced from ``src/`` or
``perfbench/`` somewhere outside its own definition: a top-level name by
a loaded name, an attribute or a ``from ... import``, a method by an
attribute.  The tests under ``tests/`` do not count as callers, and
neither do docstrings, since the check reads syntax trees, not text.
Names are matched as strings, so an unrelated attribute or variable of
the same name counts as a caller.  Names in ``gwprofile.__all__`` and in
``ALLOWED`` pass without a caller.

It also checks that every name used in an annotation is bound in its
module.  With ``from __future__ import annotations`` nothing evaluates
annotations, so an unimported name there would otherwise go unnoticed.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwprofile"

# Public names kept without a caller in src/ or perfbench/, each with its reason.
ALLOWED = {
    "solve_nu_gf": "reference route: coefficient-by-coefficient solve on the curve that tests compare nu_table against",
    "bivariate_fixed_point": "reference route: iterated fixed point that tests compare joint_table against",
    "chain_path": "reference route: a tree's profile path, for the tree-by-tree law",
    "card_pointed_quadrangulations": "reference count of the exhaustive maps test",
    "harmonic_H": "checks that the conditioned kernel is the free kernel's h-transform",
    "decomposition_weight": "checks the weight factorization of the decomposition",
    "to_marked": "checks the marked-tree identities",
    "linear_coefficient": "criterion 2's estimator of the linear singular term",
    "singular_coefficient": "criterion 2's estimator of the z^(3/2) singular term",
}


def _is_public(name):
    return not name.startswith("_")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _checked(name, public_scope):
    """Whether a definition must have a caller: a public name in a public
    scope, or any private name that is not a dunder."""
    return public_scope if _is_public(name) else not _is_dunder(name)


def _definitions(module, tree):
    """(qualified name, name, node, is_method) for public top-level defs,
    public methods of public classes, private top-level functions and
    private methods of every class."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _checked(node.name, True):
                defs.append((f"{module}.{node.name}", node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            if _is_public(node.name):
                defs.append((f"{module}.{node.name}", node.name, node, False))
            defs.extend(
                (f"{module}.{node.name}.{item.name}", item.name, item, True)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _checked(item.name, _is_public(node.name))
            )
    return defs


def _references(tree):
    """(name, is_attribute, enclosing definitions) for every reference in a module."""
    refs = []
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.append((node.id, False, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, enclosing))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, False, enclosing) for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node,)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return refs


def _exported(init_tree):
    for node in init_tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _survey():
    def parse(paths):
        return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}

    modules = parse(PACKAGE.glob("*.py"))
    callers = {**modules, **parse((ROOT / "perfbench").glob("*.py"))}
    refs = {}
    for tree in callers.values():
        for name, is_attribute, enclosing in _references(tree):
            refs.setdefault(name, []).append((is_attribute, enclosing))
    defs = [d for path, tree in modules.items() for d in _definitions(path.stem, tree)]
    exported = _exported(modules[PACKAGE / "__init__.py"])
    return defs, refs, exported


def _uncalled(defs, refs):
    """(qualified name, name) of each definition referenced only from inside itself."""
    return [
        (qualified, name)
        for qualified, name, node, is_method in defs
        if not any(
            node not in enclosing and (is_attribute or not is_method)
            for is_attribute, enclosing in refs.get(name, [])
        )
    ]


def test_every_public_name_has_a_caller():
    defs, refs, exported = _survey()
    uncalled = _uncalled(defs, refs)
    orphans = sorted(q for q, name in uncalled if name not in exported | set(ALLOWED))
    assert orphans == [], f"names with no caller outside tests: {orphans}"


def test_allowlist_is_current():
    """Each allowed name is defined, and still has no caller."""
    defs, refs, _ = _survey()
    defined = {name for _, name, _, _ in defs}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    stale = sorted(set(ALLOWED) - {name for _, name in _uncalled(defs, refs)})
    assert stale == [], f"allowed names that now have callers: {stale}"


def _module_bindings(tree):
    """Names a module binds at top level: imports, defs, classes, assignments."""
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            stack.extend(ast.iter_child_nodes(node))
        else:
            bound.update(
                n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            )
    return bound


def _annotations(tree):
    """Every annotation expression in a module, string annotations parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            found = [x.annotation for x in args if x is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        for ann in found:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                ann = ast.parse(ann.value, mode="eval").body
            if ann is not None:
                yield ann


def test_annotation_names_are_bound():
    unbound = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _module_bindings(tree) | set(dir(builtins))
        for ann in _annotations(tree):
            for node in ast.walk(ann):
                if isinstance(node, ast.Name) and node.id not in bound:
                    unbound.append(f"{path.name}:{node.lineno}: {node.id}")
    assert unbound == [], f"annotation names not bound in their module: {unbound}"
