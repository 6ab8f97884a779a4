"""Static checks on the package source, read with ast and never imported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "latframe").glob("*.py"))


def _bound_names(node: ast.stmt) -> set[str]:
    """Names a module-level statement binds by def, class, assignment or import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    return set()


def _loaded(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _dead_private_names(tree: ast.Module) -> list[str]:
    """Module-level _names that no public code reaches, directly or through
    other private names; a helper used only by dead helpers is dead too."""
    private: dict[str, list[ast.stmt]] = {}
    live: set[str] = set()
    for node in tree.body:
        names = {n for n in _bound_names(node) if n.startswith("_") and not n.startswith("__")}
        if names:
            for name in names:
                private.setdefault(name, []).append(node)
        else:
            live |= _loaded(node)
    frontier = live & private.keys()
    while frontier:
        reached = set().union(*(_loaded(node) for name in frontier for node in private[name]))
        frontier = (reached & private.keys()) - live
        live |= reached
    return sorted(private.keys() - live)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unreferenced_private_helpers(path):
    # a helper whose last caller went is dead code that still reads as a route
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _dead_private_names(tree) == []


def _all_entries(tree: ast.Module) -> list[str] | None:
    """The strings of a module-level __all__ list, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    # the benchmark tracer wraps each __all__ entry by getattr, so a stale
    # entry would end every traced run in AttributeError
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    entries = _all_entries(tree) or []
    bound = set().union(*(_bound_names(node) for node in tree.body))
    assert sorted(set(entries) - bound) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in the module (except __future__)
    that the module never loads and its __all__ does not list."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return sorted(imported - _loaded(tree) - set(_all_entries(tree) or []))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # an import whose last user went still loads its module and reads as a
    # dependency; the private-helper scan above does not see imports
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_scan_catches_an_added_import():
    # the scan's own check: each import form, added to a module that passes,
    # must fail it, and a name that is only re-exported through __all__ passes
    source = (SOURCES[0].parent / "cli.py").read_text(encoding="utf-8")
    added = {
        "from .fock import boundary_sum": ["boundary_sum"],
        "from .fock import lr_envelope as envelope": ["envelope"],
        "import os": ["os"],
        "import os.path": ["os"],
        "def f():\n    import hashlib\n    return 0": ["hashlib"],
    }
    for line, names in added.items():
        assert _unused_imports(ast.parse(source + "\n" + line + "\n")) == names, line
    assert _unused_imports(ast.parse("from .cli import main\n__all__ = ['main']\n")) == []
    assert _unused_imports(ast.parse("import numpy as np\nx = np.pi\n")) == []


# public functions that no path from `cli` reaches, each with the ROADMAP
# item that frees it; any other unreached function is an unshipped route
UNREACHED_BY_CLI = {
    "fock.jw_lowering": "bench span and whole-space oracle (item 1)",
    "fock.monomial_operator": "bench span and per-term oracle (item 1)",
    "fock.anticommutator_norm": "bench span and whole-space oracle (item 1)",
    "fock.build_quadratic_hamiltonian": "bench span and a07's free dynamics (item 1)",
    "quadratic.hopping_coeffs": "bench span only (item 1)",
    "magnetic.overlap": "bench span and overlap_matrix's per-pair oracle (item 1)",
    "magnetic.chi_pointwise": "wkernel's lattice dual (item 7)",
}


def _reached_from_cli() -> set[str]:
    """module.name of every module-level definition that `cli.main`, or a
    statement run at import, reaches by name, through `from .m import n` and
    through every method of a reached class."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}
    defs: dict[tuple[str, str], list[ast.stmt]] = {}
    imports: dict[tuple[str, str], tuple[str, str]] = {}
    frontier = {("cli", "main")}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    imports[(mod, a.asname or a.name)] = (node.module, a.name)
                continue
            for name in _bound_names(node):
                defs.setdefault((mod, name), []).append(node)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                frontier |= {(mod, n) for n in _loaded(node)}
    reached: set[tuple[str, str]] = set()
    while frontier:
        key = frontier.pop()
        while key in imports:
            key = imports[key]
        if key in reached or key not in defs:
            continue
        reached.add(key)
        frontier |= {(key[0], n) for node in defs[key] for n in _loaded(node)}
    return {f"{mod}.{name}" for mod, name in reached}


def test_every_public_function_is_reached_from_cli():
    # a public function that the program never calls is an oracle or a dead
    # route shipped as API: it belongs under tests/ or in the allow-list above
    public = {f"{p.stem}.{node.name}" for p in SOURCES
              for node in ast.parse(p.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert sorted(public - _reached_from_cli()) == sorted(UNREACHED_BY_CLI)


# optional parameters of public functions and methods that no call inside the
# package passes, each with its reason; any other is a knob with one value in
# use, which belongs in the code as a constant
UNPASSED_OPTIONAL = {
    "cli.main(argv)": "the entry point; tests and bench/run.py pass it",
    "frame_analysis.dual_coefficients(tol)": "the tests sweep it",
    "frame_analysis.neumann_certificate(eps)": "the split rule of item 9",
    "frame_analysis.neumann_certificate(theta)": "the split rule of item 9",
    "frame_analysis.neumann_certificate(m_eps_value)": "the split rule of item 9",
    "magnetic.chi_pointwise(level)": "a01's cross-level oracle (item 10)",
}


def _public_functions(trees: dict):
    """(label, def, shift) of every public function and every public method of
    a public class; shift is the number of leading parameters (self) that a
    call does not pass."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{mod}.{node.name}", node, 0
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{mod}.{node.name}.{fn.name}", fn, 1


def _unpassed_optional_parameters(trees: dict) -> list[str]:
    """'label(name)' of each parameter with a default that no call f(...) or
    x.f(...) in `trees` passes, by position or by keyword; a call with *args or
    **kwargs passes every parameter."""
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    found = []
    for label, fn, shift in _public_functions(trees):
        mine = [c for c in calls if fn.name in (getattr(c.func, "id", None),
                                                getattr(c.func, "attr", None))]
        if any(isinstance(a, ast.Starred) for c in mine for a in c.args) or any(
                k.arg is None for c in mine for k in c.keywords):
            continue
        n_pos = max((len(c.args) for c in mine), default=0) + shift
        keywords = {k.arg for c in mine for k in c.keywords}
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        optional = [(i, a.arg) for i, a in enumerate(args) if i >= first]
        optional += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        found += [f"{label}({name})" for i, name in optional
                  if name not in keywords and (i is None or i >= n_pos)]
    return sorted(found)


def _package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}


def test_every_optional_parameter_is_passed_by_the_program():
    # a default that the program never overrides is a constant in disguise:
    # the other values are reachable from tests only, a second route
    assert _unpassed_optional_parameters(_package_trees()) == sorted(UNPASSED_OPTIONAL)


def test_optional_parameter_scan_catches_an_added_knob():
    # the scan's own check: each unpassed form is caught, each passed one is not
    added = ("def added(x, knob=0, *, flag=False):\n    return x\n\n"
             "def passed(x, by_position=0, by_keyword=0):\n    return x\n\n"
             "class Added:\n    def method(self, x, knob=0):\n        return x\n\n"
             "added(1)\npassed(1, 2)\npassed(1, by_keyword=2)\nAdded().method(1)\n")
    trees = _package_trees()
    trees["lattice"] = ast.parse(ast.unparse(trees["lattice"]) + "\n" + added)
    assert _unpassed_optional_parameters(trees) == sorted(
        [*UNPASSED_OPTIONAL, "lattice.added(knob)", "lattice.added(flag)",
         "lattice.Added.method(knob)"])


def _dataclass_fields(tree: ast.Module, name: str) -> list[str]:
    """The annotated field names of the class `name`."""
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def _cfg_reads(tree: ast.Module) -> set[str]:
    """Attribute names read as cfg.<name>."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == "cfg"}


def test_every_config_key_is_read():
    # a key whose last reader went would still parse, validate and be documented
    # while changing nothing
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES if path.name in ("cli.py", "config.py")}
    read = set().union(*map(_cfg_reads, trees.values()))
    assert [f for f in _dataclass_fields(trees["config.py"], "RunConfig") if f not in read] == []


def _keywords_passed(tree: ast.Module, func: str, callee: str) -> set[str]:
    """Keyword names that the function `func` passes to calls of `callee`."""
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == func)
    return {kw.arg for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
            for kw in n.keywords}


@pytest.mark.parametrize("module,cls,maker", [
    ("lattice.py", "LatticeParams", "make_lattice_params"),
    ("magnetic.py", "MagneticParams", "make_magnetic_params"),
])
def test_every_params_field_is_set_from_config(module, cls, maker):
    # a field that the config never sets is a knob no command can turn: it
    # only ever takes its default, and a second route hides behind it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES if path.name in (module, "config.py")}
    passed = _keywords_passed(trees["config.py"], maker, cls)
    assert [f for f in _dataclass_fields(trees[module], cls) if f not in passed] == []


def _function(trees: dict, module: str, name: str) -> ast.FunctionDef | None:
    """The module-level function `name` of `module`, followed through `from .m
    import n`; None for any other name (a builtin, a class, a third-party name)."""
    for node in trees[module].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for a in node.names:
                if (a.asname or a.name) == name:
                    return _function(trees, node.module, a.name)
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


@pytest.mark.parametrize("func", ["_rates", "_inverse_power_certificate"])
def test_light_cone_constants_take_no_window(func):
    # the rate, G and the certificate follow from the lattice alone; a Window
    # parameter among their callees means a second, window-bound route
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}
    fn = _function(trees, "cli", func)
    called = {n.func.id for n in ast.walk(fn)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    defs = [fn] + [d for d in (_function(trees, "cli", name) for name in sorted(called)) if d]
    windowed = [f"{d.name}({a.arg})" for d in defs for a in d.args.args + d.args.kwonlyargs
                if a.annotation is not None and "Window" in _loaded(a.annotation)]
    assert windowed == []


@pytest.mark.parametrize("module,func", [("frame_analysis", "localization_rate"), ("cli", "_rates")])
def test_rates_take_no_lattice(module, func):
    # lam = 1 / 4 ell^2 on every lattice; a LatticeParams parameter would be an
    # input the rate does not depend on
    fn = _function(_package_trees(), module, func)
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    assert all(a.annotation is not None for a in params)
    assert [a.arg for a in params if "LatticeParams" in _loaded(a.annotation)] == []


# modules that map OpenSSL's libcrypto (hashlib, and secrets through hmac) or
# numpy.random, which maps secrets itself; no function may import them
_HEAVY_IMPORTS = ("hashlib", "secrets")


def _heavy_references(tree: ast.Module) -> list[str]:
    """Every reference to numpy.random, and every import of a module in
    _HEAVY_IMPORTS, as 'line: what'."""
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        for name in names:
            root = name.split(".")[0]
            if name == "numpy.random" or name.startswith("numpy.random."):
                found.append(f"{node.lineno}: {name}")
            elif root in _HEAVY_IMPORTS:
                found.append(f"{node.lineno}: {name} in {func or 'module scope'}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_maps_openssl_or_numpy_random(path):
    # numpy.random and hashlib map OpenSSL's libcrypto (about 3.5 MB resident)
    # into every process; no command needs either: Window.content_hash takes
    # CPython's builtin SHA-256 for the commands that write a window_hash
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _heavy_references(tree) == []


def test_heavy_import_scan_catches_each_form():
    # the scan's own check: every form it must refuse, and the one it allows
    refused = {
        "import numpy.random": 1,
        "from numpy.random import default_rng": 1,
        "from numpy import random": 1,
        "import numpy as np\nrng = np.random.default_rng(0)": 1,
        "import hashlib": 1,
        "def f():\n    import secrets": 1,
        "def f():\n    import hashlib": 1,
        "class Window:\n    def content_hash(self):\n        import hashlib\n": 1,
    }
    for source, count in refused.items():
        assert len(_heavy_references(ast.parse(source))) == count, source
    allowed = ("class Window:\n    def content_hash(self):\n        try:\n"
               "            from _sha2 import sha256\n        except ImportError:\n"
               "            from _sha256 import sha256\n")
    assert _heavy_references(ast.parse(allowed)) == []
