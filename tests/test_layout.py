"""The package holds the code its commands run, plus a short named allowlist.

An AST walk over `src/subheat` starts from the command-line entry points and
follows every name a reached definition mentions: names of its own module,
names imported with `from .mod import name`, and `mod.name` through
`from . import mod`. A class counts as one definition with all its methods.
The allowlist's entries are walked too, so their helpers need no entry.

A second inventory lists every `functools` cache in the package with the
reason its memory stays bounded by the problem. Further walks pin one
implementation per concept: every matrix product goes through
`spectral.matmul`, the Simpson nodes have one builder, and the eigenbasis is
read in `spectral` and at a short named list of readers only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "subheat"

ROOTS = {("cli", "main"), ("cli", "run"), ("cli", "parse_config")}

#: top-level definitions no command reaches, each kept for the reason given
ALLOWED = {
    ("closedform", "oscillator_heat_table"): "perfbench's tracer names it in TARGETS",
    ("closedform", "fourier_table"): "perfbench's tracer names it in TARGETS",
    ("fracderiv", "d_operator"): "perfbench's tracer names it in TARGETS",
    ("potentials", "sum_of"): "public constructor of the potential catalog",
    ("grid", "from_callable"): "public constructor of grid functions",
    ("grid", "grid_integrate"): "public quadrature of a grid function",
    ("spectral", "poisson_kernel"): "public name of the alpha = 1/2 semigroup",
    ("spectral", "apply_kernel"): "public action of a kernel on a grid function",
    ("spaces", "quasi_norm"): "public L^p quasi-norm of the Hardy-atom bounds",
    ("spaces", "duality_pairing_check"): "public duality functional (README)",
    ("estimates", "decay_exponent_fit"): "tail-exponent leg of a certificate, to be "
                                         "wired into verify",
    ("fracderiv", "frac_multiplier_quadrature"): "time-quadrature route",
    ("fracderiv", "frac_time_derivative"): "time-quadrature route",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module) -> dict:
    """Top-level functions, classes and assigned names (also unpacked ones)
    -> their defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """(local name -> (module, name)) for `from .mod import name`, and
    (local name -> module) for `from . import mod`, also where a function
    imports them."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _reached(roots) -> tuple[set, dict]:
    """Definitions reached from `roots`, and every module's definitions."""
    trees = _modules()
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _imports(tree) for mod, tree in trees.items()}
    seen, todo = set(), list(roots)
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or name not in defs.get(mod, {}):
            continue
        seen.add((mod, name))
        names, modules = imports[mod]
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                if node.id in defs[mod]:
                    todo.append((mod, node.id))
                elif node.id in names:
                    todo.append(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                todo.append((modules[node.value.id], node.attr))
    return seen, defs


def test_every_definition_is_reached_or_allowed():
    seen, defs = _reached(ROOTS | set(ALLOWED))
    unreached = sorted((mod, name) for mod, names in defs.items() for name in names
                       if (mod, name) not in seen and not name.startswith("__"))
    assert unreached == [], f"{len(unreached)} neither reached nor allowed: {unreached}"


def test_allowlist_names_live_unreached_definitions():
    seen, defs = _reached(ROOTS)
    stale = sorted(key for key in ALLOWED
                   if key[1] not in defs.get(key[0], {}) or key in seen)
    assert stale == [], f"allowlist entries that are missing or reached: {stale}"


CACHE_NAMES = {"cache", "lru_cache", "cached_property"}

#: every cache in the package -> (its decorator, why its memory stays bounded)
CACHES = {
    ("subordinator", "_descent_nodes"): (
        "lru_cache(maxsize=32)", "quadrature nodes of at most 32 alphas, ~1 KB each"),
    ("spectral", "SpectralDecomposition.mode_sums"): (
        "cached_property", "one float per mode, held with its decomposition"),
    ("estimates", "_Tables.kernel"): (
        "cached_property", "one time's row block, dropped with its _Tables after that time"),
    ("estimates", "_Tables.gradient"): (
        "cached_property", "one time's gradient, dropped with its _Tables after that time"),
    ("estimates", "_Tables.kernel_pairs"): (
        "cached_property", "lattice x lattice, a view of one time's kernel, dropped with "
                           "its _Tables"),
    ("estimates", "_Tables.gradient_pairs"): (
        "cached_property", "lattice x lattice, a view of one time's gradient, dropped with "
                           "its _Tables"),
    ("estimates", "_Tables.kernel_increments"): (
        "cached_property", "one lattice x lattice array per represented shift (at most "
                           "len(HOLDER_SHIFTS)), dropped with its _Tables"),
    ("estimates", "_Tables.gradient_increments"): (
        "cached_property", "one lattice x lattice array per represented shift (at most "
                           "len(HOLDER_SHIFTS)), dropped with its _Tables"),
}


def _cache_name(node) -> str | None:
    """`cache`, `lru_cache` or `cached_property` where `node` names one (also
    as `functools.x` or called), else None."""
    node = node.func if isinstance(node, ast.Call) else node
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in CACHE_NAMES else None


def _caches(tree: ast.Module, prefix: str = "") -> dict:
    """Qualified name -> decorator text of each cache-decorated definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            out.update({name: ast.unparse(dec) for dec in node.decorator_list
                        if _cache_name(dec)})
            out.update(_caches(node, name + "."))
    return out


def test_every_cache_is_listed_with_its_bound():
    found, stray = {}, []
    for mod, tree in _modules().items():
        caches = _caches(tree)
        found.update({(mod, name): text for name, text in caches.items()})
        uses = sum(1 for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and _cache_name(node))
        if uses != len(caches):                     # e.g. `f = cache(g)`, not a decorator
            stray.append(mod)
    assert stray == [], f"caches made other than as a decorator in: {stray}"
    assert found == {key: text for key, (text, _) in CACHES.items()}


#: numpy's own products; each runs in numpy's BLAS, outside `spectral.matmul`'s pool
NUMPY_PRODUCTS = {"dot", "matmul", "einsum"}


def _products(tree: ast.Module) -> list:
    """(line, text) of each `@`, `@=` and `np.dot`/`np.matmul`/`np.einsum`
    outside `spectral.matmul`."""
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "matmul":
            skip = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_every_product_is_spectral_matmul():
    found = {mod: hits for mod, tree in _modules().items() if (hits := _products(tree))}
    assert found == {}, f"matrix products outside spectral.matmul: {found}"


def test_the_product_guard_sees_numpy_products():
    tree = ast.parse("def f(a, b):\n    c = a @ b\n    c @= b\n"
                     "    return np.dot(a, b) + numpy.einsum('ij,jk', a, b) + np.matmul(a, b)\n"
                     "def matmul(a, b):\n    return a @ b\n")
    assert sorted(line for line, _ in _products(tree)) == [2, 3, 4, 4, 4]


def _simpson_breaches(tree: ast.Module) -> list:
    """(line, text) of each `linspace`, and of each read of `_NODE_INDEX`
    outside `_simpson_nodes`: the Simpson nodes have one builder."""
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_simpson_nodes":
            skip = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linspace"
                or isinstance(node, ast.Name) and node.id == "linspace"
                or isinstance(node, ast.Name) and node.id == "_NODE_INDEX"
                and isinstance(node.ctx, ast.Load) and id(node) not in skip):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_simpson_nodes_have_one_builder():
    tree = _modules()["potentials"]
    assert _simpson_breaches(tree) == [], "Simpson nodes built outside _simpson_nodes"


def test_the_simpson_guard_sees_linspace_and_node_reads():
    tree = ast.parse("_NODE_INDEX = np.arange(5.0)\n"
                     "def _simpson_nodes(r):\n    return _NODE_INDEX * r\n"
                     "def f(r):\n    s = np.linspace(0.0, r, 5)\n"
                     "    return _NODE_INDEX * r + linspace(0, 1, 3)\n")
    assert sorted(line for line, _ in _simpson_breaches(tree)) == [5, 6, 6]


#: the readers of `SpectralDecomposition.basis` outside `spectral`: every
#: product with the basis that a factored basis would have to serve
BASIS_READERS = {
    ("spaces", "_synthesis"): "the (J, N) semigroup ladder of a function from its coefficients",
    ("estimates", "decay_exponent_fit"): "the temporal fit's diagonal sum phi_k(x0)^2",
}


def _basis_reads(tree: ast.Module) -> list:
    """(top-level definition or "<module>", line) of each `.basis` attribute."""
    found = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        found += [(name, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "basis"]
    return found


def test_the_basis_is_read_in_spectral_and_the_listed_readers_only():
    found = {(mod, name) for mod, tree in _modules().items() if mod != "spectral"
             for name, _ in _basis_reads(tree)}
    assert found == set(BASIS_READERS), f"basis readers outside spectral: {found}"


def test_the_basis_guard_sees_every_read():
    tree = ast.parse("def f(dec):\n    return dec.basis[0]\n"
                     "class C:\n    def g(self):\n        return self.dec.basis.T\n"
                     "B = dec.basis\n")
    assert _basis_reads(tree) == [("f", 2), ("C", 5), ("<module>", 6)]
