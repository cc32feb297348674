"""Intraprocedural def-use summaries for the project-wide rules.

A :class:`FunctionSummary` is a cheap, purely syntactic dataflow digest of
one function body: which names it binds, which parameter each local is
(transitively) derived from, which free or global names it writes or
mutates, whether it touches ``os.environ``, and every call expression it
contains.  Nested ``def``/``lambda`` bodies are *not* folded into the
enclosing summary — each scope gets its own — so "free name" below always
means "free in exactly this scope".

The summaries are the substrate that
:mod:`repro.analysis.project` attaches to every function in the
:class:`~repro.analysis.project.ProjectIndex`; the RPR011 (kwarg
forwarding), RPR013 (worker-callable purity) and RPR014 (deprecated
symbols) rules are thin queries over them.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Mapping

__all__ = [
    "FreeEffect",
    "FunctionSummary",
    "MUTATING_METHODS",
    "dotted_name",
    "iter_scope_nodes",
    "summarize_function",
]

#: Method names treated as in-place mutation of their receiver.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "fill",
        "writelines",
    }
)

#: ``os`` functions that write the process environment.
_ENV_WRITER_FUNCS = frozenset({"putenv", "unsetenv"})


@dataclasses.dataclass(frozen=True)
class FreeEffect:
    """One write/mutation of a name not bound in the local scope.

    ``kind`` is ``"store"`` (assignment to the name, or to a subscript or
    attribute rooted at it) or ``"mutate"`` (an in-place mutating method
    call such as ``.append``); ``via`` carries the method name for
    mutations and the empty string for stores.
    """

    name: str
    kind: str
    node: ast.AST
    via: str = ""


def dotted_name(expr: ast.AST, aliases: Mapping[str, str] | None = None) -> str | None:
    """Flatten ``a.b.c`` into a dotted string, resolving the root alias.

    ``aliases`` maps local names to the dotted targets they were imported
    as (``{"np": "numpy"}`` turns ``np.random.seed`` into
    ``numpy.random.seed``).  Returns ``None`` for expressions that are not
    a plain name/attribute chain (calls, subscripts, literals, ...).
    """
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        root = aliases[root]
    parts.append(root)
    return ".".join(reversed(parts))


def iter_scope_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a def's body without descending into nested scopes.

    Yields every node belonging to ``func``'s own scope; nested
    ``FunctionDef``/``AsyncFunctionDef``/``Lambda`` nodes are yielded
    (so callers can see that a nested def exists) but their bodies are
    not entered.  Comprehension bodies *are* entered — their targets are
    recorded as local bindings, which is the safe approximation here.
    """
    body = func.body if isinstance(func.body, list) else [func.body]
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _target_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _root_name(target: ast.AST) -> str | None:
    """The base name of a subscript/attribute store chain, if any."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _load_names(expr: ast.AST | None) -> set[str]:
    """Every plain name read anywhere inside ``expr``."""
    if expr is None:
        return set()
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


class FunctionSummary:
    """Def-use digest of one function scope (see module docstring)."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        aliases: Mapping[str, str] | None = None,
        module_roots: set[str] | None = None,
    ) -> None:
        """Summarise ``func``; ``aliases`` is the module's import map.

        ``module_roots`` names bound by plain ``import`` statements in the
        enclosing module — those are modules by construction, so
        ``np.sort(x)`` is a function call, not an in-place mutation of a
        closed-over container.
        """
        self.node = func
        self.aliases = dict(aliases or {})
        self.module_roots = set(module_roots or ())
        args = func.args
        self.params: tuple[str, ...] = tuple(
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        if args.vararg is not None:
            self.params += (args.vararg.arg,)
        if args.kwarg is not None:
            self.params += (args.kwarg.arg,)
        #: Names bound somewhere in this scope (params included).
        self.bound: set[str] = set(self.params)
        #: name -> union of names read by the expressions assigned to it.
        self.sources: dict[str, set[str]] = {}
        self.global_names: set[str] = set()
        self.nonlocal_names: set[str] = set()
        #: Writes/mutations whose base name is free in this scope.
        self.free_effects: list[FreeEffect] = []
        #: ``os.environ`` / ``os.putenv`` touches: (node, "read"|"write").
        self.env_effects: list[tuple[ast.AST, str]] = []
        #: Every call expression in this scope, in source order.
        self.calls: list[ast.Call] = []
        self._collect()
        self._derived_cache: dict[str, frozenset[str]] = {}

    # -- construction -------------------------------------------------------

    def _collect(self) -> None:
        """Single pass over the scope: bindings, effects, calls."""
        nodes = sorted(
            iter_scope_nodes(self.node),
            key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)),
        )
        for node in nodes:
            self._collect_bindings(node)
        for node in nodes:
            self._collect_effects(node)
        self.calls = [n for n in nodes if isinstance(n, ast.Call)]

    def _collect_bindings(self, node: ast.AST) -> None:
        """Record names bound by ``node`` and their value sources."""
        if isinstance(node, ast.Global):
            self.global_names.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            self.nonlocal_names.update(node.names)
        elif isinstance(node, ast.Assign):
            reads = _load_names(node.value)
            for target in node.targets:
                for name in _target_names(target):
                    self._bind(name, reads)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            reads = _load_names(node.value)
            if isinstance(node, ast.AugAssign):
                reads |= _load_names(node.target)
            for name in _target_names(node.target):
                self._bind(name, reads)
        elif isinstance(node, ast.NamedExpr):
            self._bind(node.target.id, _load_names(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            reads = _load_names(node.iter)
            for name in _target_names(node.target):
                self._bind(name, reads)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    reads = _load_names(item.context_expr)
                    for name in _target_names(item.optional_vars):
                        self._bind(name, reads)
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                self._bind(node.name, set())
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._bind(node.name, set())
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                self._bind(local, set())
        elif isinstance(node, ast.comprehension):
            for name in _target_names(node.target):
                self._bind(name, _load_names(node.iter))

    def _bind(self, name: str, reads: set[str]) -> None:
        self.bound.add(name)
        self.sources.setdefault(name, set()).update(reads)

    def _collect_effects(self, node: ast.AST) -> None:
        """Record free-name writes/mutations and environment touches."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._record_store(target, node)
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func, self.aliases)
            if dotted is not None and dotted.startswith("os."):
                tail = dotted.split(".", 1)[1]
                if tail in _ENV_WRITER_FUNCS:
                    self.env_effects.append((node, "write"))
                elif tail.startswith("environ.") and tail.split(".")[1] in (
                    MUTATING_METHODS | {"__setitem__"}
                ):
                    self.env_effects.append((node, "write"))
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in MUTATING_METHODS:
                    base = _root_name(node.func.value)
                    if (
                        base is not None
                        and base not in self.module_roots
                        and self._is_free(base)
                    ):
                        self.free_effects.append(
                            FreeEffect(base, "mutate", node, via=method)
                        )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and dotted_name(node, self.aliases) == "os.environ"
                and not self._already_counted_env(node)
            ):
                self.env_effects.append((node, "read"))

    def _already_counted_env(self, node: ast.AST) -> bool:
        """Avoid double-reporting an environ node its parent recorded."""
        return any(
            n is node or node in ast.walk(n) for n, _ in self.env_effects
        )

    def _record_store(self, target: ast.AST, node: ast.AST) -> None:
        """Classify one assignment target as a free store when applicable."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, node)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, node)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_names or target.id in self.nonlocal_names:
                self.free_effects.append(FreeEffect(target.id, "store", node))
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = _root_name(target)
            if base is None:
                return
            dotted = dotted_name(
                target.value if isinstance(target, ast.Subscript) else target,
                self.aliases,
            )
            if dotted is not None and dotted.split(".")[:2] == ["os", "environ"]:
                self.env_effects.append((node, "write"))
                return
            if self._is_free(base):
                self.free_effects.append(FreeEffect(base, "store", node))

    def _is_free(self, name: str) -> bool:
        """True when ``name`` is read from an enclosing scope."""
        return name not in self.bound or name in self.global_names

    # -- queries ------------------------------------------------------------

    def derived(self, param: str) -> frozenset[str]:
        """Names transitively derived from ``param`` (including itself)."""
        if param in self._derived_cache:
            return self._derived_cache[param]
        reach = {param}
        changed = True
        while changed:
            changed = False
            for name, reads in self.sources.items():
                if name not in reach and reads & reach:
                    reach.add(name)
                    changed = True
        result = frozenset(reach)
        self._derived_cache[param] = result
        return result

    def expr_derived_from(self, expr: ast.AST, param: str) -> bool:
        """True when ``expr`` reads any name derived from ``param``."""
        return bool(_load_names(expr) & self.derived(param))

    def env_writes(self) -> list[ast.AST]:
        """Nodes that write the process environment."""
        return [node for node, kind in self.env_effects if kind == "write"]

    def env_reads(self) -> list[ast.AST]:
        """Nodes that read ``os.environ``."""
        return [node for node, kind in self.env_effects if kind == "read"]


def summarize_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    aliases: Mapping[str, str] | None = None,
    module_roots: set[str] | None = None,
) -> FunctionSummary:
    """Build a :class:`FunctionSummary` for one def/lambda node."""
    return FunctionSummary(func, aliases=aliases, module_roots=module_roots)
