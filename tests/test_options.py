"""Every option of the package is one the package sets, or is allowlisted.

An option is a parameter with a default value, on any function or method of
`src/subheat`, or a dataclass field with a default. The package sets it when
some call in `src/subheat` passes it: by keyword, by position, or, for a
field, through `dataclasses.replace` or an attribute assignment. An option
the package never sets always takes its default, so it is a constant spelled
as a knob; this test asks for the constant, or an allowlist entry with the
reason the option stays.

Calls are matched by the callee's name (`f(...)` and `obj.f(...)`); a method
called as `obj.f(...)` gets `self` implicitly. A function or method used as a
value (stored, passed on or aliased) is called where the walk cannot follow,
so its parameters count as set. Like `test_layout.py`, the test reads the
source with `ast` and imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "subheat"

#: options no package call sets, each kept for the reason given
ALLOWED = {
    "spaces.default_time_grid.n_times": "tests run short ladders",
    "estimates.decay_exponent_fit.points": "sample count of the tail-exponent leg, "
                                           "to be chosen when verify runs it",
    "cli.main.argv": "the command line, or an argument list in-process",
    "spectral.multiplier_kernel.t": "unread; perfbench's tracer tests still pass a time "
                                    "as the third positional argument",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _function_options(mod: str, qualname: str, fn, method: bool) -> list:
    """(key, name, positional index or None, method, False) per defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = []
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(args.defaults):
            out.append((f"{mod}.{qualname}.{arg.arg}", fn.name, i, method, False))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((f"{mod}.{qualname}.{arg.arg}", fn.name, None, method, False))
    return out


def _options(trees: dict) -> list:
    """Every option of the package: (key, callee name, positional index, method, field)."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += _function_options(mod, node.name, node, False)
            elif isinstance(node, ast.ClassDef):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                if _is_dataclass(node):
                    out += [(f"{mod}.{node.name}.{item.target.id}", node.name, i, False, True)
                            for i, item in enumerate(fields) if item.value is not None]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        out += _function_options(mod, f"{node.name}.{item.name}", item,
                                                 not static)
    return out


def _bound_names(fn) -> set:
    """Parameters and assigned names of a function or lambda: its local names."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return names | {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


class _Uses(ast.NodeVisitor):
    """Calls, names set by `replace` or attribute assignment, and functions used as values.

    A call is (callee name, through an attribute, positional count or None
    when starred, keyword names). A name loaded outside a call escapes when
    it names a function of the module and no enclosing scope binds it; an
    attribute escapes when it names a method, or a function of a module.
    """

    def __init__(self, methods: set):
        self.methods = methods
        self.functions: set = set()     # of the module being walked
        self.modules: set = set()
        self.calls, self.assigned, self.values = [], set(), set()
        self.local: set = set()

    def _scope(self, node):
        for decorator in getattr(node, "decorator_list", []):
            self.visit(decorator)
        outer = self.local
        self.local = outer | _bound_names(node)
        for child in ([node.body] if isinstance(node, ast.Lambda) else node.body):
            self.visit(child)
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            self.visit(default)
        self.local = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _scope

    def visit_AnnAssign(self, node):
        self._assign([node.target])
        if node.value is not None:
            self.visit(node.value)

    def visit_Assign(self, node):
        self._assign(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._assign([node.target])
        self.generic_visit(node)

    def _assign(self, targets):
        self.assigned |= {t.attr for t in targets if isinstance(t, ast.Attribute)}

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        self.calls.append((name, isinstance(func, ast.Attribute),
                           None if starred else len(node.args), keywords))
        if name == "replace":
            self.assigned |= keywords
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for child in node.args + node.keywords:
            self.visit(child)

    def visit_Name(self, node):
        if (isinstance(node.ctx, ast.Load) and node.id in self.functions
                and node.id not in self.local):
            self.values.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and (
                node.attr in self.methods
                or (isinstance(node.value, ast.Name) and node.value.id in self.modules)):
            self.values.add(node.attr)
        if not isinstance(node.value, ast.Name):    # `Cls.attr` reads, it does not escape Cls
            self.visit(node.value)


def _uses(trees: dict) -> _Uses:
    methods = {item.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    uses = _Uses(methods)
    for tree in trees.values():
        relative = [node for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1]
        uses.functions = {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        uses.functions |= {alias.asname or alias.name for node in relative if node.module
                           for alias in node.names}
        uses.modules = {alias.asname or alias.name for node in relative
                        if node.module is None for alias in node.names}
        uses.visit(tree)
    return uses


def _unset_options() -> list:
    trees = _modules()
    uses = _uses(trees)
    unset = []
    for key, callee, index, method, field in _options(trees):
        param = key.rsplit(".", 1)[1]
        if callee in uses.values or (field and param in uses.assigned):
            continue
        passed = False
        for name, through_attribute, positional, keywords in uses.calls:
            if name != callee:
                continue
            implicit = 1 if method and through_attribute else 0
            if (param in keywords or positional is None
                    or (index is not None and positional + implicit > index)):
                passed = True
                break
        if not passed:
            unset.append(key)
    return sorted(unset)


def test_every_option_is_set_by_the_package_or_allowed():
    unset = [key for key in _unset_options() if key not in ALLOWED]
    assert unset == [], f"{len(unset)} options no package call sets: {unset}"


def test_option_allowlist_names_live_unset_options():
    unset = set(_unset_options())
    stale = sorted(key for key in ALLOWED if key not in unset)
    assert stale == [], f"allowlist entries that are missing or set: {stale}"
