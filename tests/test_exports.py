import ast
import importlib
import pkgutil
from pathlib import Path

import twofluid

ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package or the benchmark calls, kept on
# purpose; every other public function or class needs a caller there
ORACLES = (
    ("multiplier", "pointwise catalog symbol m_{sigma;mu,nu}; tests check both nonlinearity routes against it"),
    ("dispersive_residual", "residual of (d_t + i Lam)U = N along a trajectory; tests check the diagonalization with it"),
    ("local_energy_residual", "pointwise energy identity; tests check rhs and its fluxes against it"),
    ("spatial_localize", "rebuilds the dyadic piece that z_norm_upper reports, independently of it"),
    ("z_norm_upper", "the paper's Z-norm bound of a profile, computed nowhere else"),
    ("hn_norm", "the paper's H^N norm of a profile, computed nowhere else"),
    ("r_munu_prime", "d r^{mu,nu}/ds of the paper's resonant geometry, computed nowhere else"),
)


def test_every_exported_name_resolves():
    # a deleted function left behind in an __all__ list fails here
    names = ["twofluid"] + [f"twofluid.{m.name}" for m in pkgutil.iter_modules(twofluid.__path__)]
    missing = {}
    for name in names:
        mod = importlib.import_module(name)
        stale = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
        if stale:
            missing[name] = stale
    assert len(names) >= 10
    assert not missing


def _public_defs(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _references(tree):
    """(name, enclosing top-level definition) for every name read in ``tree``."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_public_name_has_a_caller():
    package = sorted((ROOT / "src" / "twofluid").glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))]
    public = {name for tree in trees[:len(package)] for name in _public_defs(tree)}
    # a definition that only refers to itself has no caller
    used = {name for tree in trees for name, owner in _references(tree) if name != owner}
    oracles = dict(ORACLES)
    assert len(oracles) == len(ORACLES) == 7
    uncalled = public - used
    assert uncalled - set(oracles) == set(), sorted(uncalled - set(oracles))
    # an oracle that gained a caller, or went, leaves the list
    assert set(oracles) <= uncalled, sorted(set(oracles) - uncalled)


# defaulted parameters that nothing in the package or the benchmark passes,
# kept on purpose; every other method, constructor and defaulted parameter
# needs a caller there
UNPASSED = (
    # the Euler-Poisson (electrostatic) system: the abstract names it as a model
    # the proof covers, nothing else in the package models it, and tests run it
    ("rhs", "kind"),
    ("integrate", "kind"),
    ("local_energy_residual", "kind"),
    ("random_irrotational", "rotational"),
    # options of oracles (see ORACLES) that only tests turn
    ("dispersive_residual", "include_nonlinearity"),
    ("hn_norm", "order"),
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scoped(node, owners=()):
    """(node, the definitions enclosing it) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield child, owners
        yield from _scoped(child, owners + (child,) if isinstance(child, _DEFS) else owners)


def _reaches(call, index, name):
    """Whether ``call`` passes the parameter ``name``, which sits at the
    positional ``index`` (None if keyword-only), explicitly."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def _uncalled_members(trees, package):
    """Methods and class attributes read nowhere outside their own body,
    classes with their own ``__init__`` constructed nowhere outside their body,
    and defaulted parameters that no call passes, over the definitions of the
    first ``package`` trees; a name matches any attribute or callee of that name."""
    nodes = [(node, owners) for tree in trees for node, owners in _scoped(tree)]
    reads = [(node.attr, owners) for node, owners in nodes if isinstance(node, ast.Attribute)]
    calls = [(node, owners) for node, owners in nodes if isinstance(node, ast.Call)]
    found = []
    for node, owners in (pair for tree in trees[:package] for pair in _scoped(tree)):
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    names = [m.name]
                else:  # class attributes, such as properties made by assignment
                    names = [n.id for t in getattr(m, "targets", ()) for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
                for name in names:
                    if not name.startswith("__") and not any(
                            attr == name and m not in where for attr, where in reads):
                        found.append(f"{node.name}.{name}")
                if getattr(m, "name", None) == "__init__" and not any(
                        _name_of(c.func) == node.name and node not in where for c, where in calls):
                    found.append(f"{node.name}()")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            if owners and isinstance(owners[-1], ast.ClassDef) and not any(
                    _name_of(d) == "staticmethod" for d in node.decorator_list):
                positional = positional[1:]  # self or cls
            name = owners[-1].name if node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            mine = [c for c, where in calls if _name_of(c.func) == name and node not in where]
            found += [(name, arg) for i, arg in defaulted
                      if not any(_reaches(c, i, arg) for c in mine)]
    return found


def test_every_member_and_option_has_a_caller():
    package = sorted((ROOT / "src" / "twofluid").glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))]
    found = _uncalled_members(trees, len(package))
    assert len(set(UNPASSED)) == len(UNPASSED) == 6
    assert [f for f in found if f not in UNPASSED] == []
    # an option that gained a caller, or went, leaves the list
    assert set(UNPASSED) <= set(found), sorted(set(UNPASSED) - set(found))
    # the guard sees each kind of member without a caller
    probe = ast.parse("class A:\n    def __init__(self, x=1): pass\n    def m(self): self.m()\n"
                      "    p = property(len)\n"
                      "def f(a, b=2, *, c=3): f(a, b, c=c)\nf(0)\n")
    assert _uncalled_members([probe], 1) == [
        "A()", "A.m", "A.p", ("A", "x"), ("f", "b"), ("f", "c")]


# parameters with defaults plus dataclass fields over the package, as counted
# when the unused options became constants; the count may only go down
SETTABLE_VALUES_MAX = 80


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_values_do_not_grow():
    package = sorted((ROOT / "src" / "twofluid").glob("*.py"))
    total = sum(_settable_values(ast.parse(path.read_text())) for path in package)
    assert total <= SETTABLE_VALUES_MAX, total


def _unused_imports(tree):
    """Names bound by an import statement of ``tree`` and never read; a name
    listed in the module's ``__all__`` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "twofluid").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    found = {path.relative_to(ROOT).as_posix(): unused for path in paths
             if (unused := _unused_imports(ast.parse(path.read_text(), filename=str(path))))}
    assert len(paths) >= 20
    assert not found, found


_FFT_MODULES = {"scipy.fft", "scipy.fftpack", "numpy.fft"}


def _fft_imports(tree):
    """The lines of ``tree`` that import ``scipy.fft``, ``scipy.fftpack`` or
    ``numpy.fft``, whole or in part, or reach one as ``np.fft``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
        else:
            continue
        if any(".".join(name.split(".")[:2]) in _FFT_MODULES for name in names):
            found.append(node.lineno)
    return found


def test_only_spectral_imports_a_transform_library():
    # the transform policy (norm, workers, layouts) lives in module spectral
    package = sorted((ROOT / "src" / "twofluid").glob("*.py"))
    found = {path.name: lines for path in package
             if (lines := _fft_imports(ast.parse(path.read_text(), filename=str(path))))}
    assert len(package) >= 10
    assert set(found) == {"spectral.py"}, found



def _name_of(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_caches(tree):
    """The lines of ``tree`` that reach ``functools.cache``, or use an
    ``lru_cache`` without passing a ``maxsize`` other than None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cache":
            found.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a bare @lru_cache passes no maxsize
            found += [d.lineno for d in node.decorator_list if _name_of(d) == "lru_cache"]
        elif isinstance(node, ast.Call) and _name_of(node.func) == "lru_cache":
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if size is None or (isinstance(size, ast.Constant) and size.value is None):
                found.append(node.lineno)
    return found


def test_every_cache_has_a_size_limit():
    package = sorted((ROOT / "src" / "twofluid").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in package}
    found = {name: lines for name, tree in trees.items() if (lines := _unbounded_caches(tree))}
    assert not found, found
    # the guard sees the package's caches, and rejects each unbounded form
    assert sum(_name_of(n.func) == "lru_cache" for tree in trees.values()
               for n in ast.walk(tree) if isinstance(n, ast.Call)) >= 2
    for bad in ("@lru_cache\ndef f(): pass", "@functools.lru_cache(maxsize=None)\ndef f(): pass",
                "@lru_cache(None)\ndef f(): pass", "from functools import cache",
                "@functools.cache\ndef f(): pass", "g = lru_cache()(f)"):
        assert _unbounded_caches(ast.parse(bad)) == [1], bad
    assert _unbounded_caches(ast.parse("@lru_cache(maxsize=8)\ndef f(): pass")) == []
