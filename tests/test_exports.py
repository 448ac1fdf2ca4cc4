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


# parameters with defaults plus dataclass fields over the package, as counted
# when the unused options became constants; the count may only go down
SETTABLE_VALUES_MAX = 83


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
