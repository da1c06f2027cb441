"""Project-wide symbol table and call graph for whole-program lint.

The single-file rules (DET001-003, HYG, PERF) see one tree at a time;
the concurrency/determinism properties this repo actually depends on
— "no function *transitively* reachable from HBR inference touches a
wall clock", "nothing a forked shard worker runs mutates shared state"
— are properties of the whole program.  This module builds the
substrate those rules (``rules/det_flow.py``, ``rules/concurrency.py``)
and the fixpoint engine (``dataflow.py``) analyse:

1. **Extraction** (:class:`ModuleExtractor`): one focused pass per
   parsed file collecting, per function, its raw call sites, function
   references, decorators, module-global writes, and the lexical
   ``with <lock>`` state of every call; per module, its import alias
   table, classes (bases, attribute types) and module-level mutable
   globals.
2. **Resolution** (:class:`Project`): raw names are resolved against
   the project symbol table — imports (aliased or not), module-level
   functions, ``self``/``cls`` method lookup through internal base
   classes, locals assigned from constructors, and parameters whose
   types are discovered by propagating argument types across call
   sites to a fixpoint.  Unresolvable targets are kept as *external*
   calls with their dotted name (``time.perf_counter``,
   ``os.urandom``) — exactly what the determinism taint seeds on.
3. **Roots** (:meth:`Project.fork_roots` / :meth:`Project.thread_roots`):
   functions handed to ``multiprocessing`` pools / ``Process`` are
   fork-worker entry points; ``threading.Thread`` targets, executor
   submissions and ``do_*`` methods of HTTP-handler subclasses are
   thread entry points.

Everything iterates in sorted order so findings — and the analysis
cache — are byte-stable across runs and hash seeds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

#: Methods that mutate their receiver in place — a call of one of
#: these on a module-level name is a write to shared module state.
MUTATING_METHODS: FrozenSet[str] = frozenset(
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
        "appendleft",
        "popleft",
        "sort",
        "reverse",
    }
)

#: Constructor calls whose result is a mutable container.
MUTABLE_FACTORIES: FrozenSet[str] = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)

#: ``multiprocessing`` fan-out methods: the first positional argument
#: is executed in forked worker processes.
POOL_METHODS: FrozenSet[str] = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "map_async", "starmap_async", "apply_async"}
)

#: Known factory/return types the resolver cannot see syntactically.
#: Maps a resolved callee to the class its return value has.  Rules
#: may extend this via :meth:`Project.resolve_all`'s ``return_types``.
DEFAULT_RETURN_TYPES: Dict[str, str] = {
    "repro.obs.get_registry": "repro.obs.metrics.MetricsRegistry",
    "repro.obs.enable": "repro.obs.metrics.MetricsRegistry",
    "repro.obs.get_tracer": "repro.obs.tracing.Tracer",
    "repro.obs.get_ledger": "repro.obs.resources.ResourceLedger",
    "repro.obs.metrics.MetricsRegistry.counter": "repro.obs.metrics.Counter",
    "repro.obs.metrics.MetricsRegistry.gauge": "repro.obs.metrics.Gauge",
    "repro.obs.metrics.MetricsRegistry.histogram": "repro.obs.metrics.Histogram",
    "repro.obs.metrics.MetricsRegistry.stopwatch": "repro.obs.metrics.Stopwatch",
}


# -- raw (unresolved) references -----------------------------------------


@dataclass
class CallSite:
    """One call expression, before resolution.

    ``raw`` is the dotted attribute path as written (``("pool",
    "map")``); ``chain_of`` is set instead when the call hangs off
    another call's result (``registry.histogram(...).observe(...)``).
    """

    raw: Tuple[str, ...]
    line: int
    locked: bool
    args: Tuple[Tuple[str, ...], ...] = ()
    kwargs: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    chain_of: Optional["CallSite"] = None


@dataclass
class FunctionInfo:
    """Everything extraction learned about one function or method."""

    qname: str
    module: str
    name: str
    path: str
    line: int
    cls: Optional[str] = None  #: enclosing class qname, if a method
    parent: Optional[str] = None  #: enclosing function qname, if nested
    params: Tuple[str, ...] = ()
    decorators: Tuple[Tuple[str, ...], ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    #: names referenced (not called) that may resolve to functions
    refs: List[Tuple[Tuple[str, ...], int]] = field(default_factory=list)
    #: local name -> raw path of the constructor / value it was
    #: assigned from ("self" maps a variable aliasing self).
    local_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: module-global writes: (global name, line, how, under-lock?)
    global_writes: List[Tuple[str, int, str, bool]] = field(default_factory=list)
    globals_declared: Set[str] = field(default_factory=set)
    locals_bound: Set[str] = field(default_factory=set)
    #: class qnames bound onto each parameter by callers (fixpoint).
    param_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: enclosing function of the *class* this method belongs to, when
    #: the class itself is nested in a function (closure handlers).
    cls_parent: Optional[str] = None
    # -- filled by resolution ------------------------------------------
    edges: List[Tuple[str, str, int, bool]] = field(default_factory=list)
    #: resolved external calls: (dotted name, line, locked)
    external_calls: List[Tuple[str, int, bool]] = field(default_factory=list)


@dataclass
class ClassInfo:
    qname: str
    module: str
    name: str
    line: int
    bases: Tuple[Tuple[str, ...], ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> qname
    #: attribute name -> raw constructor path seen in any method body
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: enclosing function qname when the class is nested in one (the
    #: closure-handler pattern); methods inherit it as ``cls_parent``.
    parent_fn: Optional[str] = None


@dataclass
class GlobalInfo:
    """A module-level binding (the CONC003 subjects)."""

    qname: str
    module: str
    name: str
    line: int
    mutable: bool = False
    #: raw constructor path, when the value was a constructor call
    ctor: Optional[Tuple[str, ...]] = None


@dataclass
class ModuleSummary:
    module: str
    path: str
    #: local alias -> dotted import target
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Dict[str, GlobalInfo] = field(default_factory=dict)


def _attr_path(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None when the base is not a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _looks_like_lock(raw: Optional[Tuple[str, ...]]) -> bool:
    if not raw:
        return False
    tail = raw[-1].lower()
    return "lock" in tail or "mutex" in tail


class ModuleExtractor:
    """One recursive pass over a module tree building a summary."""

    def __init__(self, module: str, path: str, tree: ast.AST) -> None:
        self.summary = ModuleSummary(module=module, path=path)
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []
        self._lock_depth = 0
        self._visit_body(getattr(tree, "body", []), at_module_level=True)

    # -- scope helpers -----------------------------------------------------

    def _qname(self, name: str) -> str:
        parts = [self.summary.module]
        if self._func_stack:
            parts = [self._func_stack[-1].qname]
        elif self._class_stack:
            parts = [self._class_stack[-1].qname]
        return ".".join(parts + [name])

    @property
    def _fn(self) -> Optional[FunctionInfo]:
        return self._func_stack[-1] if self._func_stack else None

    # -- traversal ---------------------------------------------------------

    def _visit_body(self, body: Sequence[ast.stmt], at_module_level: bool = False) -> None:
        for stmt in body:
            self._visit_stmt(stmt, at_module_level)

    def _visit_stmt(self, node: ast.stmt, at_module_level: bool = False) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._record_import(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._record_function(node)
        elif isinstance(node, ast.ClassDef):
            self._record_class(node)
        elif isinstance(node, ast.Global):
            if self._fn is not None:
                self._fn.globals_declared.update(node.names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            lockish = any(
                _looks_like_lock(_attr_path(item.context_expr))
                for item in node.items
            )
            for item in node.items:
                self._visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars)
            if lockish:
                self._lock_depth += 1
            self._visit_body(node.body)
            if lockish:
                self._lock_depth -= 1
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._record_assignment(node, at_module_level)
        else:
            # Generic statement: visit nested statements and expressions.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._visit_stmt(child)
                elif isinstance(child, ast.expr):
                    self._visit_expr(child)
                elif isinstance(child, (ast.excepthandler,)):
                    self._visit_body(child.body)
                elif isinstance(child, ast.keyword):
                    self._visit_expr(child.value)

    # -- imports -----------------------------------------------------------

    def _record_import(self, node: ast.AST) -> None:
        imports = self.summary.imports
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"

    # -- definitions -------------------------------------------------------

    def _record_function(self, node) -> None:
        cls = self._class_stack[-1] if (self._class_stack and not self._func_stack) else None
        qname = self._qname(node.name)
        args = node.args
        params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        info = FunctionInfo(
            qname=qname,
            module=self.summary.module,
            name=node.name,
            path=self.summary.path,
            line=node.lineno,
            cls=cls.qname if cls is not None else None,
            parent=self._fn.qname if self._fn is not None else None,
            cls_parent=cls.parent_fn if cls is not None else None,
            params=params,
            decorators=tuple(
                raw
                for raw in (_attr_path(_decorator_base(d)) for d in node.decorator_list)
                if raw is not None
            ),
        )
        info.locals_bound.update(params)
        self.summary.functions[qname] = info
        if cls is not None:
            cls.methods[node.name] = qname
        if self._fn is not None:
            # A nested def is at least referenced by its parent.
            self._fn.refs.append(((node.name,), node.lineno))
            self._fn.local_types[node.name] = ("__function__", qname)
        for d in node.decorator_list:
            self._visit_expr(d)
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            self._visit_expr(default)
        self._func_stack.append(info)
        saved_lock = self._lock_depth
        self._lock_depth = 0
        self._visit_body(node.body)
        self._lock_depth = saved_lock
        self._func_stack.pop()

    def _record_class(self, node: ast.ClassDef) -> None:
        qname = self._qname(node.name)
        info = ClassInfo(
            qname=qname,
            module=self.summary.module,
            name=node.name,
            line=node.lineno,
            bases=tuple(
                raw for raw in (_attr_path(b) for b in node.bases) if raw is not None
            ),
            parent_fn=self._fn.qname if self._fn is not None else None,
        )
        self.summary.classes[qname] = info
        self._class_stack.append(info)
        saved = self._func_stack
        self._func_stack = []
        self._visit_body(node.body)
        self._func_stack = saved
        self._class_stack.pop()

    # -- assignments -------------------------------------------------------

    def _record_assignment(self, node, at_module_level: bool) -> None:
        value = getattr(node, "value", None)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if value is not None:
            self._visit_expr(value)
        fn = self._fn
        locked = self._lock_depth > 0
        for target in targets:
            if isinstance(target, ast.Name):
                if at_module_level and not self._class_stack and fn is None:
                    self._record_global_def(target.id, target.lineno, value)
                elif fn is not None:
                    aug_on_global = isinstance(node, ast.AugAssign) and (
                        target.id not in fn.locals_bound
                        and target.id in self.summary.globals
                    )
                    if target.id in fn.globals_declared or aug_on_global:
                        fn.global_writes.append(
                            (target.id, target.lineno, "assign", locked)
                        )
                    else:
                        fn.locals_bound.add(target.id)
                        self._record_local_type(fn, target.id, value)
            elif isinstance(target, ast.Subscript):
                raw = _attr_path(target.value)
                if fn is not None and raw is not None and len(raw) == 1:
                    name = raw[0]
                    if name not in fn.locals_bound and name not in fn.params:
                        fn.global_writes.append(
                            (name, target.lineno, "subscript", locked)
                        )
                self._visit_expr(target.value)
                self._visit_expr(target.slice)
            elif isinstance(target, ast.Attribute):
                self._record_attr_assignment(target, value)
                self._visit_expr(target.value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name) and fn is not None:
                        fn.locals_bound.add(element.id)

    def _bind_target(self, target: ast.expr) -> None:
        fn = self._fn
        if fn is None:
            return
        if isinstance(target, ast.Name):
            fn.locals_bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element)

    def _record_global_def(self, name: str, line: int, value) -> None:
        mutable = False
        ctor: Optional[Tuple[str, ...]] = None
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            mutable = True
        elif isinstance(value, ast.Call):
            raw = _attr_path(value.func)
            ctor = raw
            if raw is not None and raw[-1] in MUTABLE_FACTORIES:
                mutable = True
        self.summary.globals[name] = GlobalInfo(
            qname=f"{self.summary.module}.{name}",
            module=self.summary.module,
            name=name,
            line=line,
            mutable=mutable,
            ctor=ctor,
        )

    def _record_local_type(self, fn: FunctionInfo, name: str, value) -> None:
        if value is None:
            return
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls"):
                fn.local_types[name] = ("self",)
            elif value.id in fn.local_types:
                fn.local_types[name] = fn.local_types[value.id]
            return
        if isinstance(value, ast.IfExp):
            # `x = a if cond else B()` — prefer whichever arm names a type.
            for arm in (value.body, value.orelse):
                if isinstance(arm, ast.Call):
                    raw = _attr_path(arm.func)
                    if raw is not None:
                        fn.local_types[name] = ("call",) + raw
                        return
            return
        if isinstance(value, ast.Call):
            raw = _attr_path(value.func)
            if raw is not None:
                fn.local_types[name] = ("call",) + raw

    def _record_attr_assignment(self, target: ast.Attribute, value) -> None:
        # `self.engine = InferenceEngine()` inside a method: remember the
        # attribute's constructor so method calls on it resolve.
        if not (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._fn is not None
            and self._fn.cls is not None
        ):
            return
        cls = self.summary.classes.get(self._fn.cls)
        if cls is None or target.attr in cls.attr_types:
            return
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        elif isinstance(value, ast.BoolOp):
            candidates = list(value.values)
        for arm in candidates:
            if isinstance(arm, ast.Call):
                raw = _attr_path(arm.func)
                if raw is not None:
                    cls.attr_types[target.attr] = raw
                    return
            if isinstance(arm, ast.Name) and self._fn is not None:
                # `self.engine = engine` — a constructor parameter;
                # try its annotation via local_types (not tracked) —
                # skip, the IfExp arm usually names the type.
                continue

    # -- expressions -------------------------------------------------------

    def _visit_expr(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._record_call(node)
            return
        if isinstance(node, ast.Lambda):
            self._visit_expr(node.body)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter)
                for cond in child.ifs:
                    self._visit_expr(cond)
            elif isinstance(child, ast.keyword):
                self._visit_expr(child.value)

    def _record_call(self, node: ast.Call) -> CallSite:
        fn = self._fn
        raw = _attr_path(node.func)
        chain_parent: Optional[CallSite] = None
        if raw is None and isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Call
        ):
            chain_parent = self._record_call(node.func.value)
            raw = (node.func.attr,)
        elif raw is None:
            self._visit_expr(node.func)

        arg_raws: List[Tuple[str, ...]] = []
        for arg in node.args:
            arg_raw = _attr_path(arg)
            if arg_raw is not None:
                arg_raws.append(arg_raw)
                if fn is not None:
                    fn.refs.append((arg_raw, getattr(arg, "lineno", node.lineno)))
            else:
                arg_raws.append(())
                self._visit_expr(arg)
        kw_raws: List[Tuple[str, Tuple[str, ...]]] = []
        for kw in node.keywords:
            kw_raw = _attr_path(kw.value)
            if kw.arg is not None and kw_raw is not None:
                kw_raws.append((kw.arg, kw_raw))
                if fn is not None:
                    fn.refs.append((kw_raw, getattr(kw.value, "lineno", node.lineno)))
            else:
                self._visit_expr(kw.value)

        site = CallSite(
            raw=raw if raw is not None else (),
            line=node.lineno,
            locked=self._lock_depth > 0,
            args=tuple(arg_raws),
            kwargs=tuple(kw_raws),
            chain_of=chain_parent,
        )
        if fn is not None and (site.raw or site.chain_of is not None):
            fn.calls.append(site)
            # Mutating method call on a module global: `_CACHE.append(x)`.
            if (
                len(site.raw) == 2
                and site.raw[1] in MUTATING_METHODS
                and site.raw[0] not in fn.locals_bound
                and site.raw[0] not in fn.params
                and site.raw[0] not in self.summary.imports
            ):
                fn.global_writes.append(
                    (site.raw[0], node.lineno, "mutate", self._lock_depth > 0)
                )
        return site


def _decorator_base(node: ast.expr) -> ast.expr:
    """``@obs.traced("x")`` -> the ``obs.traced`` expression."""
    return node.func if isinstance(node, ast.Call) else node


# -- the resolved project ------------------------------------------------


@dataclass
class Edge:
    """One resolved call-graph edge."""

    src: str
    dst: str
    kind: str  #: 'call' | 'ref' | 'decorator'
    line: int
    locked: bool


class Project:
    """Symbol table + resolved call graph over a set of modules."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.globals: Dict[str, GlobalInfo] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
            self.functions.update(summary.functions)
            self.classes.update(summary.classes)
            for info in summary.globals.values():
                self.globals[info.qname] = info
        self._rcallers: Dict[str, List[Edge]] = {}
        self._edges: Dict[str, List[Edge]] = {}
        self.return_types: Dict[str, str] = dict(DEFAULT_RETURN_TYPES)
        self.resolve_all()

    # -- resolution --------------------------------------------------------

    def resolve_all(self) -> None:
        """Resolve every call site; iterate to propagate param types."""
        for _round in range(4):
            changed = self._resolve_round()
            if not changed:
                break
        self._edges = {}
        self._rcallers = {}
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            seen: Set[Tuple[str, str, int]] = set()
            out: List[Edge] = []
            for dst, kind, line, locked in sorted(fn.edges):
                key = (dst, kind, line)
                if key in seen:
                    continue
                seen.add(key)
                edge = Edge(src=qname, dst=dst, kind=kind, line=line, locked=locked)
                out.append(edge)
                self._rcallers.setdefault(dst, []).append(edge)
            self._edges[qname] = out

    def _resolve_round(self) -> bool:
        changed = False
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            fn.edges = []
            fn.external_calls = []
            for site in fn.calls:
                for kind, target in self._resolve_site(fn, site):
                    if kind == "internal":
                        fn.edges.append((target, "call", site.line, site.locked))
                        changed |= self._bind_params(fn, site, target)
                    elif kind == "external":
                        fn.external_calls.append((target, site.line, site.locked))
            for raw, line in fn.refs:
                resolved = self._resolve_raw(fn, raw)
                for kind, target in resolved:
                    if kind == "internal" and target in self.functions:
                        fn.edges.append((target, "ref", line, False))
            for raw in fn.decorators:
                for kind, target in self._resolve_raw(fn, raw):
                    if kind == "internal" and target in self.functions:
                        fn.edges.append((target, "decorator", fn.line, False))
        return changed

    def _bind_params(self, fn: FunctionInfo, site: CallSite, callee_q: str) -> bool:
        """Propagate known argument types onto the callee's params."""
        callee = self.functions.get(callee_q)
        if callee is None:
            return False
        params = list(callee.params)
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        changed = False
        for position, arg_raw in enumerate(site.args):
            if position >= len(params) or not arg_raw:
                continue
            for cls_q in self._type_of(fn, arg_raw):
                bucket = callee.param_types.setdefault(params[position], set())
                if cls_q not in bucket and len(bucket) < 4:
                    bucket.add(cls_q)
                    changed = True
        for kw_name, kw_raw in site.kwargs:
            if kw_name not in callee.params:
                continue
            for cls_q in self._type_of(fn, kw_raw):
                bucket = callee.param_types.setdefault(kw_name, set())
                if cls_q not in bucket and len(bucket) < 4:
                    bucket.add(cls_q)
                    changed = True
        return changed

    def _type_of(self, fn: FunctionInfo, raw: Tuple[str, ...]) -> List[str]:
        """Class qnames a raw expression may evaluate to (best effort)."""
        if not raw:
            return []
        if raw[0] in ("self", "cls") and len(raw) == 1 and fn.cls is not None:
            return [fn.cls]
        if raw[0] in fn.param_types and len(raw) == 1:
            # Forward a caller-bound parameter type to the next callee
            # (`_infer_records(engine, ...)` -> `engine._infer_edges(...)`).
            return sorted(fn.param_types[raw[0]])
        local = fn.local_types.get(raw[0])
        if local is not None and len(raw) == 1:
            if local == ("self",) and fn.cls is not None:
                return [fn.cls]
            if local and local[0] == "call":
                resolved = self._resolve_dotted_in_module(fn.module, local[1:])
                if resolved and resolved[0] == "internal":
                    target = resolved[1]
                    if target in self.classes:
                        return [target]
                    if target in self.return_types:
                        return [self.return_types[target]]
        return []

    def _resolve_site(
        self, fn: FunctionInfo, site: CallSite
    ) -> List[Tuple[str, str]]:
        if site.chain_of is not None:
            # `registry.histogram(...).observe(...)`: type the inner
            # call's result, then look the attr up on that class.
            inner = self._resolve_site(fn, site.chain_of)
            results: List[Tuple[str, str]] = []
            for kind, target in inner:
                if kind != "internal":
                    continue
                cls_q = self.return_types.get(target)
                if cls_q is None:
                    continue
                method = self._lookup_method(cls_q, site.raw[0]) if site.raw else None
                if method is not None:
                    results.append(("internal", method))
            return results
        return self._resolve_raw(fn, site.raw)

    def _resolve_raw(
        self, fn: FunctionInfo, raw: Tuple[str, ...]
    ) -> List[Tuple[str, str]]:
        if not raw:
            return []
        head = raw[0]
        module = self.modules.get(fn.module)
        # self / cls: method or typed-attribute lookup on the class.
        if head in ("self", "cls") and fn.cls is not None and len(raw) >= 2:
            return self._resolve_on_class(fn.cls, raw[1:], fn)
        # Local variable with a known constructor type.
        local = fn.local_types.get(head)
        if local is not None:
            if local == ("self",) and fn.cls is not None and len(raw) >= 2:
                return self._resolve_on_class(fn.cls, raw[1:], fn)
            if local and local[0] == "__function__" and len(raw) == 1:
                return [("internal", local[1])]
            if local and local[0] == "call":
                resolved = self._resolve_dotted_in_module(fn.module, local[1:])
                if resolved and resolved[0] == "internal":
                    target = resolved[1]
                    cls_q = (
                        target
                        if target in self.classes
                        else self.return_types.get(target)
                    )
                    if cls_q is not None and len(raw) >= 2:
                        return self._resolve_on_class(cls_q, raw[1:], fn)
                elif resolved and resolved[0] == "external" and len(raw) >= 2:
                    return []  # method on an external object: unknown
            return []
        # Parameter with caller-bound types.
        if head in fn.param_types and len(raw) >= 2:
            results: List[Tuple[str, str]] = []
            for cls_q in sorted(fn.param_types[head]):
                results.extend(self._resolve_on_class(cls_q, raw[1:], fn))
            return results
        if head in fn.locals_bound or head in fn.params:
            return []  # untyped local / parameter: opaque
        # Enclosing function scope (closures: `server = self` above a
        # nested def, or above a nested class's methods).
        for parent_q in (fn.parent, fn.cls_parent):
            if parent_q is None:
                continue
            parent = self.functions.get(parent_q)
            if parent is not None and (
                head in parent.local_types or head in parent.locals_bound
            ):
                return self._resolve_raw(parent, raw)
        if module is None:
            return []
        # Import alias.
        if head in module.imports:
            dotted = tuple(module.imports[head].split(".")) + raw[1:]
            resolved = self._resolve_dotted(dotted)
            return self._post_resolve(resolved, fn)
        # Module-level symbol of the same module.
        own = f"{fn.module}.{head}"
        if own in self.functions and len(raw) == 1:
            return [("internal", own)]
        if own in self.classes:
            if len(raw) == 1:
                return self._post_resolve(("internal", own), fn)
            return self._resolve_on_class(own, raw[1:], fn)
        if head in module.globals:
            info = module.globals[head]
            if info.ctor is not None and len(raw) >= 2:
                resolved = self._resolve_dotted_in_module(fn.module, info.ctor)
                if resolved and resolved[0] == "internal" and resolved[1] in self.classes:
                    return self._resolve_on_class(resolved[1], raw[1:], fn)
            return []
        # Unknown bare name (builtin, etc.): only meaningful dotted.
        if len(raw) >= 2:
            resolved = self._resolve_dotted(raw)
            if resolved is not None and resolved[0] == "external":
                return []  # `foo.bar()` with unknown foo: opaque
            return self._post_resolve(resolved, fn)
        return []

    def _post_resolve(
        self, resolved: Optional[Tuple[str, str]], fn: FunctionInfo
    ) -> List[Tuple[str, str]]:
        if resolved is None:
            return []
        kind, target = resolved
        if kind == "internal" and target in self.classes:
            # Instantiation: the edge goes to __init__ when defined.
            init = self._lookup_method(target, "__init__")
            return [("internal", init)] if init is not None else []
        return [(kind, target)]

    def _resolve_dotted_in_module(
        self, module: str, raw: Tuple[str, ...]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a raw path as if written at module scope of ``module``."""
        if not raw:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        head = raw[0]
        if head in summary.imports:
            return self._resolve_dotted(
                tuple(summary.imports[head].split(".")) + raw[1:]
            )
        own = f"{module}.{head}"
        if own in self.functions or own in self.classes:
            if len(raw) == 1:
                return ("internal", own)
            return self._resolve_dotted(tuple(module.split(".")) + raw)
        if len(raw) >= 2:
            return self._resolve_dotted(raw)
        return None

    def _resolve_dotted(self, dotted: Tuple[str, ...]) -> Optional[Tuple[str, str]]:
        """Longest-prefix match of a fully dotted path against modules."""
        for split in range(len(dotted), 0, -1):
            module = ".".join(dotted[:split])
            if module in self.modules:
                rest = dotted[split:]
                if not rest:
                    return ("internal", module)
                target = f"{module}.{'.'.join(rest)}"
                if target in self.functions or target in self.classes:
                    return ("internal", target)
                if len(rest) == 2:
                    cls_q = f"{module}.{rest[0]}"
                    if cls_q in self.classes:
                        method = self._lookup_method(cls_q, rest[1])
                        if method is not None:
                            return ("internal", method)
                if target in self.globals:
                    return ("internal", target)
                # Inside a known module but not a known symbol: treat
                # as internal-opaque (re-exports); fall back external
                # so taint seeds still see e.g. `repro.obs.span`.
                return ("external", target)
        return ("external", ".".join(dotted))

    def _resolve_on_class(
        self, cls_q: str, rest: Tuple[str, ...], fn: FunctionInfo
    ) -> List[Tuple[str, str]]:
        if not rest:
            return []
        method = self._lookup_method(cls_q, rest[0])
        if method is not None and len(rest) == 1:
            return [("internal", method)]
        cls = self.classes.get(cls_q)
        if cls is not None and rest[0] in cls.attr_types and len(rest) >= 2:
            resolved = self._resolve_dotted_in_module(cls.module, cls.attr_types[rest[0]])
            if resolved and resolved[0] == "internal" and resolved[1] in self.classes:
                return self._resolve_on_class(resolved[1], rest[1:], fn)
        return []

    def _lookup_method(self, cls_q: str, name: str) -> Optional[str]:
        """Method lookup through internal base classes (bounded MRO)."""
        seen: Set[str] = set()
        queue = [cls_q]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            for base_raw in cls.bases:
                resolved = self._resolve_dotted_in_module(cls.module, base_raw)
                if resolved and resolved[0] == "internal":
                    queue.append(resolved[1])
        return None

    # -- graph queries -----------------------------------------------------

    def callees(self, qname: str) -> List[Edge]:
        return self._edges.get(qname, [])

    def callers(self, qname: str) -> List[Edge]:
        return self._rcallers.get(qname, [])

    def location(self, qname: str) -> Tuple[str, int]:
        fn = self.functions.get(qname)
        if fn is not None:
            return fn.path, fn.line
        info = self.globals.get(qname)
        if info is not None:
            summary = self.modules.get(info.module)
            return (summary.path if summary else "<unknown>"), info.line
        return "<unknown>", 1

    def describe(self, qname: str) -> str:
        """``qual.name (path:line)`` — one evidence-chain hop."""
        if qname in self.functions or qname in self.globals:
            path, line = self.location(qname)
            return f"{qname} ({path}:{line})"
        return f"{qname}()"

    # -- concurrency roots -------------------------------------------------

    def fork_roots(self) -> List[Tuple[str, str, int]]:
        """(worker function, spawning function, line) for fork fan-outs."""
        roots: List[Tuple[str, str, int]] = []
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            for site in fn.calls:
                if not site.raw:
                    continue
                tail = site.raw[-1]
                if tail in POOL_METHODS and site.args:
                    for target in self._resolve_raw(fn, site.args[0]):
                        if target[0] == "internal" and target[1] in self.functions:
                            roots.append((target[1], qname, site.line))
                elif tail == "Process":
                    for kw_name, kw_raw in site.kwargs:
                        if kw_name != "target":
                            continue
                        for target in self._resolve_raw(fn, kw_raw):
                            if target[0] == "internal" and target[1] in self.functions:
                                roots.append((target[1], qname, site.line))
        return sorted(set(roots))

    def thread_roots(self) -> List[Tuple[str, str, int]]:
        """(entry function, why, line) for thread-executed entry points."""
        roots: List[Tuple[str, str, int]] = []
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            for site in fn.calls:
                if not site.raw:
                    continue
                tail = site.raw[-1]
                if tail in ("Thread", "Timer") or tail == "submit":
                    for kw_name, kw_raw in site.kwargs:
                        if kw_name != "target":
                            continue
                        for target in self._resolve_raw(fn, kw_raw):
                            if target[0] == "internal" and target[1] in self.functions:
                                roots.append((target[1], qname, site.line))
                    if tail == "submit" and site.args:
                        for target in self._resolve_raw(fn, site.args[0]):
                            if target[0] == "internal" and target[1] in self.functions:
                                roots.append((target[1], qname, site.line))
        for cls_q in sorted(self.classes):
            cls = self.classes[cls_q]
            if not self._is_http_handler(cls):
                continue
            for name in sorted(cls.methods):
                if name.startswith("do_") or name == "log_message":
                    method = cls.methods[name]
                    roots.append((method, cls_q, self.functions[method].line))
        return sorted(set(roots))

    def _is_http_handler(self, cls: ClassInfo, depth: int = 0) -> bool:
        if depth > 3:
            return False
        for base_raw in cls.bases:
            if base_raw and base_raw[-1] in (
                "BaseHTTPRequestHandler",
                "SimpleHTTPRequestHandler",
            ):
                return True
            resolved = self._resolve_dotted_in_module(cls.module, base_raw)
            if resolved and resolved[0] == "internal":
                base = self.classes.get(resolved[1])
                if base is not None and self._is_http_handler(base, depth + 1):
                    return True
        return False


def build_project(
    files: Iterable[Tuple[str, str, ast.AST]]
) -> Project:
    """Extract + resolve: (path, module, tree) triples -> Project."""
    summaries = [
        ModuleExtractor(module, path, tree).summary
        for path, module, tree in sorted(files, key=lambda f: f[1])
    ]
    return Project(summaries)
