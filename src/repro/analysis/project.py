"""Project index: modules, imports, symbols and the call graph.

:class:`ProjectIndex` is built once per analysis run from every parsed
module and gives the cross-module (``ProjectRule``) rules a resolved view
of the codebase: which module defines which function, what every import
alias points at, which calls resolve to which project functions, and a
lazy :class:`~repro.analysis.dataflow.FunctionSummary` per function.
Everything is stdlib ``ast``; nothing is imported or executed.

The index also hosts the **deprecation registry** consumed by RPR014 —
a table of symbols that still work at runtime but must not gain new call
sites — so retiring an API is one :func:`register_deprecation` line, not
a new rule.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Mapping

from .context import ModuleContext
from .dataflow import FunctionSummary, dotted_name
from .registry import Rule
from .violations import Violation

__all__ = [
    "Deprecation",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "deprecations",
    "module_name_for_path",
    "register_deprecation",
]

#: Leading path components stripped when deriving module names.
_SRC_PREFIXES = ("src",)

#: Re-export chase depth limit (guards against import cycles).
_MAX_RESOLVE_DEPTH = 8


def module_name_for_path(relpath: str) -> str:
    """Dotted module name for a project-relative ``.py`` path.

    ``src/repro/core/stkdv.py`` -> ``repro.core.stkdv``;
    ``pkg/__init__.py`` -> ``pkg``.  Paths that are not importable-shaped
    (e.g. ``<memory>``) are sanitised into a single identifier so fixture
    sources still index cleanly.
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] in _SRC_PREFIXES and len(parts) > 1:
        parts = parts[1:]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    cleaned = [
        "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in part)
        for part in parts
        if part
    ]
    return ".".join(cleaned) if cleaned else "_module"


@dataclasses.dataclass
class FunctionInfo:
    """One function (or method) known to the index."""

    module: "ModuleInfo"
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    _summary: FunctionSummary | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        """Bare function name (last qualname component)."""
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def dotted(self) -> str:
        """Fully qualified ``module.qualname`` path."""
        return f"{self.module.name}.{self.qualname}"

    @property
    def is_method(self) -> bool:
        """True for functions defined inside a class body."""
        return "." in self.qualname

    @property
    def positional(self) -> tuple[str, ...]:
        """Positionally addressable parameter names, in order."""
        args = self.node.args
        names = tuple(a.arg for a in (*args.posonlyargs, *args.args))
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    @property
    def param_names(self) -> frozenset[str]:
        """All explicitly named parameters (excluding ``self``/``cls``)."""
        args = self.node.args
        return frozenset(self.positional) | {a.arg for a in args.kwonlyargs}

    @property
    def has_kwargs(self) -> bool:
        """True when the signature ends in ``**kwargs``."""
        return self.node.args.kwarg is not None

    @property
    def returns(self) -> str | None:
        """The return annotation as source text, if present."""
        if self.node.returns is None:
            return None
        return ast.unparse(self.node.returns)

    def accepts(self, param: str) -> bool:
        """True when ``param`` is an explicitly named parameter."""
        return param in self.param_names

    def positional_index(self, param: str) -> int | None:
        """Zero-based positional slot of ``param`` (None when kw-only)."""
        try:
            return self.positional.index(param)
        except ValueError:
            return None

    @property
    def summary(self) -> FunctionSummary:
        """Lazy def-use summary of the function body."""
        if self._summary is None:
            self._summary = FunctionSummary(
                self.node,
                aliases=self.module.import_aliases,
                module_roots=self.module.module_aliases,
            )
        return self._summary


class ModuleInfo:
    """Per-module slice of the index: imports, symbols, functions."""

    def __init__(self, name: str, ctx: ModuleContext) -> None:
        """Scan one parsed module's top level."""
        self.name = name
        self.ctx = ctx
        self.path = ctx.path
        self.is_package = ctx.path.replace("\\", "/").endswith("__init__.py")
        #: local name -> dotted import target (``np`` -> ``numpy``).
        self.import_aliases: dict[str, str] = {}
        #: names bound by plain ``import`` statements — modules by
        #: construction, so attribute calls on them are never mutations.
        self.module_aliases: set[str] = set()
        #: top-level def/class nodes by name.
        self.symbols: dict[str, ast.AST] = {}
        #: top-level simple assignments: name -> value expression.
        self.assignments: dict[str, ast.AST] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        #: qualname -> FunctionInfo for top-level functions and methods.
        self.functions: dict[str, FunctionInfo] = {}
        self.exports: tuple[str, ...] | None = None
        self._scan()

    def _scan(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.import_aliases[local] = target
                    self.module_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.import_aliases[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.symbols[node.name] = node
                self.functions[node.name] = FunctionInfo(self, node.name, node)
            elif isinstance(node, ast.ClassDef):
                self.symbols[node.name] = node
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{node.name}.{item.name}"
                        self.functions[qualname] = FunctionInfo(
                            self, qualname, item
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.symbols[target.id] = node
                        self.assignments[target.id] = node.value
                        if target.id == "__all__":
                            self.exports = _literal_strings(node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    self.symbols[node.target.id] = node
                    self.assignments[node.target.id] = node.value

    def _resolve_import_base(self, node: ast.ImportFrom) -> str | None:
        """Absolute dotted base of a (possibly relative) from-import."""
        if node.level == 0:
            return node.module or ""
        parts = self.name.split(".")
        if not self.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        if node.module:
            base_parts = [*base_parts, node.module]
        return ".".join(base_parts)

    def resolve_local(self, name: str) -> str | None:
        """Dotted target of a module-level name (import alias or own def)."""
        if name in self.import_aliases:
            return self.import_aliases[name]
        if name in self.symbols:
            return f"{self.name}.{name}"
        return None


def _literal_strings(node: ast.AST) -> tuple[str, ...] | None:
    """Extract a tuple of strings from a literal list/tuple, else None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return tuple(out)


class ProjectIndex:
    """Resolved project-wide view consumed by the ``ProjectRule`` set."""

    def __init__(self, modules: Mapping[str, ModuleInfo]) -> None:
        """Index ``modules`` by dotted name (use :meth:`build` normally)."""
        self.modules: dict[str, ModuleInfo] = dict(modules)
        self._by_path = {m.ctx.path: m for m in self.modules.values()}

    @classmethod
    def build(cls, contexts: Mapping[str, ModuleContext]) -> "ProjectIndex":
        """Build the index from ``{relpath: ModuleContext}``."""
        modules: dict[str, ModuleInfo] = {}
        for relpath in sorted(contexts):
            name = module_name_for_path(relpath)
            modules[name] = ModuleInfo(name, contexts[relpath])
        return cls(modules)

    def module_for_path(self, path: str) -> ModuleInfo | None:
        """The module whose context path equals ``path``, if indexed."""
        return self._by_path.get(path)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function in every module, in deterministic order."""
        for name in sorted(self.modules):
            module = self.modules[name]
            for qualname in sorted(module.functions):
                yield module.functions[qualname]

    # -- name resolution ----------------------------------------------------

    def resolve(self, dotted: str, _depth: int = 0) -> object | None:
        """Resolve an absolute dotted path to what the project defines.

        Returns a :class:`FunctionInfo`, :class:`ast.ClassDef`,
        :class:`ModuleInfo` or ``None`` (external / unknown).  Re-exports
        (a module importing a symbol that another module defines) are
        chased up to a fixed depth so ``repro.parallel_map`` resolves even
        when only re-exported from ``repro/__init__``.
        """
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        if dotted in self.modules:
            return self.modules[dotted]
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            remainder = parts[cut:]
            return self._resolve_in_module(module, remainder, _depth)
        return None

    def _resolve_in_module(
        self, module: ModuleInfo, remainder: list[str], depth: int
    ) -> object | None:
        """Resolve a symbol path inside one module, chasing re-exports."""
        head = remainder[0]
        if head in module.import_aliases:
            target = module.import_aliases[head]
            return self.resolve(
                ".".join([target, *remainder[1:]]), _depth=depth + 1
            )
        qualname = ".".join(remainder)
        if qualname in module.functions:
            return module.functions[qualname]
        if len(remainder) == 1 and head in module.classes:
            return module.classes[head]
        if len(remainder) == 2 and remainder[0] in module.classes:
            return module.functions.get(qualname)
        return None

    def dotted_for(self, module: ModuleInfo, expr: ast.AST) -> str | None:
        """Absolute dotted path of a name/attribute chain in ``module``."""
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = module.resolve_local(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)])

    def resolve_call(self, module: ModuleInfo, call: ast.Call) -> FunctionInfo | None:
        """The project function a call expression dispatches to, if known.

        Calls through ``self.``/local variables/external libraries return
        ``None``; a call that resolves to a class returns the class's
        ``__init__`` when the project defines one.
        """
        dotted = self.dotted_for(module, call.func)
        if dotted is None:
            return None
        target = self.resolve(dotted)
        if isinstance(target, FunctionInfo):
            return target
        if isinstance(target, ast.ClassDef):
            owner = self._class_owner(target)
            if owner is not None:
                return owner.functions.get(f"{target.name}.__init__")
        return None

    def _class_owner(self, cls: ast.ClassDef) -> ModuleInfo | None:
        """The module that defines ``cls``."""
        for module in self.modules.values():
            if module.classes.get(cls.name) is cls:
                return module
        return None

    # -- import graph -------------------------------------------------------

    def import_graph(self) -> dict[str, set[str]]:
        """Project-internal import edges: module -> imported modules."""
        graph: dict[str, set[str]] = {name: set() for name in self.modules}
        for name, module in self.modules.items():
            for target in module.import_aliases.values():
                owner = self._owning_module(target)
                if owner is not None and owner != name:
                    graph[name].add(owner)
        return graph

    def _owning_module(self, dotted: str) -> str | None:
        """Longest indexed module-name prefix of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 in the import graph.

        Returned cycles are sorted (both internally and across cycles) so
        the output is deterministic for tests and reports.
        """
        graph = self.import_graph()
        index_counter = [0]
        stack: list[str] = []
        on_stack: set[str] = set()
        indices: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        cycles: list[list[str]] = []

        def strongconnect(v: str) -> None:
            indices[v] = lowlink[v] = index_counter[0]
            index_counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(graph.get(v, ())):
                if w not in indices:
                    strongconnect(w)
                    lowlink[v] = min(lowlink[v], lowlink[w])
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], indices[w])
            if lowlink[v] == indices[v]:
                component: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))

        for v in sorted(graph):
            if v not in indices:
                strongconnect(v)
        return sorted(cycles)


class ProjectRule(Rule):
    """Base class for cross-module rules run against a ProjectIndex.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`check` hook is a no-op so a ProjectRule can live in the same
    registry as the file rules.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Project rules produce nothing during the per-file phase."""
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        """Yield findings computed against the whole project index."""
        raise NotImplementedError

    def project_violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        """Build a Violation anchored inside ``module``."""
        return Violation(
            rule_id=self.rule_id,
            path=module.ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=module.ctx.qualname(node),
        )


@dataclasses.dataclass(frozen=True)
class Deprecation:
    """One entry in the deprecation table consumed by RPR014.

    ``kind`` is ``"attribute"`` (``owner`` is a class name, ``attr`` the
    deprecated attribute) or ``"function"`` (``qualname`` is the absolute
    dotted path of a deprecated callable).
    """

    kind: str
    replacement: str
    since: str
    qualname: str = ""
    owner: str = ""
    attr: str = ""


_DEPRECATIONS: dict[str, Deprecation] = {}


def register_deprecation(entry: Deprecation) -> Deprecation:
    """Add one entry to the deprecation table (idempotent by key)."""
    key = entry.qualname or f"{entry.owner}.{entry.attr}"
    _DEPRECATIONS[key] = entry
    return entry


def deprecations() -> tuple[Deprecation, ...]:
    """The registered deprecation table, in registration order."""
    return tuple(_DEPRECATIONS.values())


register_deprecation(
    Deprecation(
        kind="attribute",
        owner="DensityGrid",
        attr="stats",
        replacement="DensityGrid.diagnostics.records['refinement']",
        since="PR 5 (observability subsystem)",
    )
)

# The per-module scatter loops superseded by repro.core.scatter.  The
# functions themselves were deleted; registering them keeps RPR014
# flagging any straggler that reintroduces or re-imports one.
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.streaming.MultiSurfaceAccumulator._scatter",
        replacement="repro.core.scatter.PatchScatter.scatter",
        since="PR 7 (scatter core)",
    )
)
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.nkdv._scatter_event",
        replacement="repro.core.scatter.scatter_line",
        since="PR 7 (scatter core)",
    )
)
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.nkdv._scatter_event_split",
        replacement="repro.core.scatter.scatter_line",
        since="PR 7 (scatter core)",
    )
)

# The single-surface accumulator class named below is deleted: the
# streaming engine's StreamingKDV owns the window, the drift policy and
# the dirty-tile ledger, and drives a one-surface MultiSurfaceAccumulator
# directly.  The entry keeps RPR014 flagging any import that reintroduces
# the class.
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.streaming.KDVAccumulator",
        replacement="repro.stream.StreamingKDV",
        since="PR 9 (streaming engine)",
    )
)

# The positional per-method KDV entry points (kde_gridcut(problem, tail,
# dtype) and friends) are superseded by the unified keyword surface of
# kde_grid(method=...) / KDVRequest — one signature the planner, the
# request layer and the server all share.  They are no longer on the
# ``repro.core.kdv`` surface; registered under those *package-surface*
# qualnames, the entries flag any import that puts them back, while the
# registry and the ST sweeps reach the implementations through their
# defining modules (the sanctioned internal path).
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.kde_gridcut",
        replacement="repro.core.kdv.kde_grid(method='grid')",
        since="PR 10 (analytics service layer)",
    )
)
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.kde_naive",
        replacement="repro.core.kdv.kde_grid(method='naive')",
        since="PR 10 (analytics service layer)",
    )
)
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.kde_parallel",
        replacement="repro.core.kdv.kde_grid(method='parallel')",
        since="PR 10 (analytics service layer)",
    )
)
register_deprecation(
    Deprecation(
        kind="function",
        qualname="repro.core.kdv.kde_sweep",
        replacement="repro.core.kdv.kde_grid(method='sweep')",
        since="PR 10 (analytics service layer)",
    )
)
