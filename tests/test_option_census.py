"""An option exists when some caller sets it (AST census; DESIGN §5 "Options").

Every defaulted parameter of a public function, constructor or method in
``src/repro`` outside ``analysis`` is set -- by keyword, position or ``**`` --
at some call site under ``CALLER_DIRS``.  A call to a name counts for every
definition of that name; ``seed`` is exempt (a run's identity).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tests")
# "qualified.name:parameter" -> why no visible call site sets it (the
# bench/-frozen surface is all set by bench/ itself).
ALIASED = "tests/test_soak.py sets it through the parametrised alias run_one"
ALLOWED = {
    "repro.fleet.soak.run_fleet_soak:duration_s": ALIASED,
    "repro.shard.soak.run_shard_soak:duration_s": ALIASED,
}


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _public_defs():
    """Yield ``(call name, qualified name, FunctionDef, takes self)``; a
    staticmethod counts as taking it, which only makes a position match sooner."""
    package = ROOT / "src" / "repro"
    for path, tree in _trees(package):
        if "analysis" in path.relative_to(package).parts:
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, f"{module}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or item.name[0] != "_"):
                        called_as = node.name if item.name == "__init__" else item.name
                        yield called_as, f"{module}.{node.name}.{item.name}", item, True


def _call_sites():
    """Call name -> [(positional count, None if starred; keywords, None if ``**``)]."""
    calls = {}
    for directory in CALLER_DIRS:
        for _, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                func = getattr(node, "func", None)  # only a Call has one
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name is None:
                    continue
                count = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((count, None if None in keywords else keywords))
    return calls


def unset_options():
    calls = _call_sites()
    unset = []
    for name, qualified, fn, bound in _public_defs():
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        defaulted = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first_default]
        defaulted += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        for param, index in defaulted:
            by_position = index is not None and any(n is None or n > index for n, _ in calls.get(name, []))
            is_set = by_position or any(kw is None or param in kw for _, kw in calls.get(name, []))
            if not is_set and param != "seed" and f"{qualified}:{param}" not in ALLOWED:
                unset.append(f"{qualified}:{param}")
    return unset


def test_every_defaulted_parameter_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, f"{len(unset)} options no call site sets:\n" + "\n".join(unset)
