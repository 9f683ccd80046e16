"""Rule pack ``conc``: concurrency hazards in simulation processes.

SimPy concurrency is cooperative — no data races — but event-ordering
hazards are real and this repo has hit every one of them: a generator
checks a queue, yields (suspension point), and acts on a now-stale
check; a phase-change callback and a watchdog process both pop the same
watch table and the loser sees a KeyError or a double-shed; a
module-level registry is mutated by whichever testbed runs first.

The detector joins a per-class AST pass (who owns which mutable
attribute, who mutates it, where the yields are) with the whole-program
:class:`~repro.analysis.callgraph.CallGraph` (which methods actually
run inside the simulation, which are hook-registered callbacks):

- ``CONC001`` — *stale guard across a yield*: a sim-reachable generator
  method reads an attribute in a guard, yields, then mutates that same
  attribute.  Between the read and the write any other process may have
  run; the guard no longer holds.
- ``CONC002`` — *multi-writer shared attribute*: one mutable attribute
  is order-sensitively mutated both by a hook-registered callback and
  by a (different) sim-reachable generator process.  Relative event
  order — not program logic — decides the final state.
- ``CONC003`` — *module-level state mutated from simulation code*: the
  whole-process analog; two testbeds in one process share the object.

All three are warnings: they flag *hazards*, which a human either fixes
or baselines with a justification (e.g. "pop(uid, None) on both sides
is idempotent by design").
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing as _t

from repro.analysis.callgraph import CallGraph, build_call_graph, module_name_for
from repro.analysis.determinism import (
    MUTABLE_CONSTRUCTORS,
    ParsedFile,
    parse_python_paths,
)
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.registry import rule

__all__ = ["run_concurrency_rules", "CONC_CODES"]

CONC_CODES = ("CONC001", "CONC002", "CONC003")

#: attribute-method calls that mutate a container, by order sensitivity
_ORDER_SENSITIVE_CALLS = {
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "sort", "reverse",
}
_APPEND_ONLY_CALLS = {
    "append", "appendleft", "add", "extend", "insert", "update",
    "setdefault", "push",
}


@dataclasses.dataclass
class _Mutation:
    attr: str
    line: int
    order_sensitive: bool
    snippet: str


@dataclasses.dataclass
class _MethodConc:
    name: str
    line: int
    #: attr -> guard-read lines (reads inside if/while tests)
    guard_reads: dict = dataclasses.field(default_factory=dict)
    #: attr -> every line that loads the attribute (any context)
    reads: dict = dataclasses.field(default_factory=dict)
    mutations: list = dataclasses.field(default_factory=list)
    yield_lines: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class _ClassConc:
    name: str  # local (in-module) dotted name
    line: int
    #: attr -> line of the mutable initializer in __init__
    mutable_attrs: dict = dataclasses.field(default_factory=dict)
    #: method name -> _MethodConc
    methods: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class _ModuleConc:
    module: str
    path: str
    #: module-level mutable name -> definition line
    module_mutables: dict = dataclasses.field(default_factory=dict)
    classes: list = dataclasses.field(default_factory=list)
    #: local function qualname -> [(global name, line, snippet)]
    global_mutations: dict = dataclasses.field(default_factory=dict)


class _ConcVisitor(ast.NodeVisitor):
    """Collect per-class attribute ownership/mutation and module state."""

    def __init__(self, info: _ModuleConc, lines: "list[str]"):
        self.info = info
        self.lines = lines
        self._class_stack: list[_ClassConc] = []
        self._scope: list[str] = []  # names of enclosing classes+functions
        self._method_stack: list[_MethodConc] = []
        self._func_depth_in_method: list[int] = []

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- definitions ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = _ClassConc(
            name=".".join(self._scope + [node.name]), line=node.lineno
        )
        self.info.classes.append(cls)
        self._class_stack.append(cls)
        self._scope.append(node.name)
        for child in node.body:
            self.visit(child)
        self._scope.pop()
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        is_method = bool(self._class_stack) and not self._method_stack
        if is_method:
            method = _MethodConc(name=node.name, line=node.lineno)
            self._class_stack[-1].methods[node.name] = method
            self._method_stack.append(method)
            self._func_depth_in_method.append(0)
        elif self._method_stack:
            self._func_depth_in_method[-1] += 1
        self._scope.append(node.name)
        for child in node.body:
            self.visit(child)
        self._scope.pop()
        if is_method:
            self._method_stack.pop()
            self._func_depth_in_method.pop()
        elif self._method_stack:
            self._func_depth_in_method[-1] -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @property
    def _method(self) -> "_MethodConc | None":
        return self._method_stack[-1] if self._method_stack else None

    @property
    def _func_qualname(self) -> str:
        return ".".join(self._scope)

    # -- yields (direct method body only: nested defs don't suspend it) ------

    def _visit_yield(self, node) -> None:
        if self._method is not None and self._func_depth_in_method[-1] == 0:
            self._method.yield_lines.append(node.lineno)
        self.generic_visit(node)

    visit_Yield = _visit_yield
    visit_YieldFrom = _visit_yield

    # -- attribute helpers ---------------------------------------------------

    @staticmethod
    def _self_attr(expr: ast.expr) -> "str | None":
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _is_mutable_ctor(self, value: ast.expr) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call):
            leaf = (
                value.func.attr
                if isinstance(value.func, ast.Attribute)
                else value.func.id if isinstance(value.func, ast.Name) else ""
            )
            return leaf in MUTABLE_CONSTRUCTORS
        return False

    def _record_mutation(
        self, attr: str, line: int, order_sensitive: bool
    ) -> None:
        if self._method is not None:
            self._method.mutations.append(
                _Mutation(attr=attr, line=line,
                          order_sensitive=order_sensitive,
                          snippet=self._snippet(line))
            )

    def _record_global_mutation(self, name: str, line: int) -> None:
        if not self._scope:
            return  # module body populating its own state is setup, not a race
        self.info.global_mutations.setdefault(self._func_qualname, []).append(
            (name, line, self._snippet(line))
        )

    # -- statements ----------------------------------------------------------

    def _handle_assign(
        self, targets: "list[ast.expr]", value: "ast.expr | None",
        node: ast.stmt,
    ) -> None:
        for target in targets:
            self._record_write_target(target, node)
        if value is None:
            return
        # __init__-style mutable attribute declaration
        if self._method is not None and self._method.name == "__init__":
            for target in targets:
                attr = self._self_attr(target)
                if attr and self._is_mutable_ctor(value):
                    self._class_stack[-1].mutable_attrs.setdefault(
                        attr, target.lineno
                    )
        # module-level mutable definitions
        if not self._scope:
            for target in targets:
                if isinstance(target, ast.Name) and self._is_mutable_ctor(
                    value
                ) and not (
                    target.id.startswith("__") and target.id.endswith("__")
                ):
                    self.info.module_mutables.setdefault(
                        target.id, target.lineno
                    )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_assign(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._handle_assign([node.target], node.value, node)
        self.generic_visit(node)

    def _record_write_target(self, target: ast.expr, node: ast.stmt) -> None:
        attr = self._self_attr(target)
        if attr and self._method is not None and self._method.name != "__init__":
            self._record_mutation(attr, node.lineno, order_sensitive=True)
        if isinstance(target, ast.Subscript):
            inner = self._self_attr(target.value)
            if inner:
                self._record_mutation(inner, node.lineno, order_sensitive=True)
            elif isinstance(target.value, ast.Name):
                self._record_global_mutation(target.value.id, node.lineno)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._self_attr(node.target)
        if attr:
            self._record_mutation(attr, node.lineno, order_sensitive=True)
        elif isinstance(node.target, ast.Name):
            self._record_global_mutation(node.target.id, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                inner = self._self_attr(target.value)
                if inner:
                    self._record_mutation(
                        inner, node.lineno, order_sensitive=True
                    )
                elif isinstance(target.value, ast.Name):
                    self._record_global_mutation(
                        target.value.id, node.lineno
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            method_name = node.func.attr
            owner = node.func.value
            sensitive = method_name in _ORDER_SENSITIVE_CALLS
            mutating = sensitive or method_name in _APPEND_ONLY_CALLS
            if mutating:
                attr = self._self_attr(owner)
                if attr:
                    self._record_mutation(
                        attr, node.lineno, order_sensitive=sensitive
                    )
                elif isinstance(owner, ast.Name):
                    self._record_global_mutation(owner.id, node.lineno)
        self.generic_visit(node)

    # -- guard reads ---------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if (
            attr
            and isinstance(node.ctx, ast.Load)
            and self._method is not None
        ):
            self._method.reads.setdefault(attr, []).append(node.lineno)
        self.generic_visit(node)

    def _record_guard(self, test: ast.expr) -> None:
        if self._method is None:
            return
        for sub in ast.walk(test):
            attr = self._self_attr(sub)
            if attr and isinstance(sub.ctx, ast.Load):
                self._method.guard_reads.setdefault(attr, []).append(
                    sub.lineno
                )

    def visit_If(self, node: ast.If) -> None:
        self._record_guard(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._record_guard(node.test)
        self.generic_visit(node)


def _analyze_modules(
    files: "_t.Sequence[ParsedFile]",
) -> "list[_ModuleConc]":
    modules: list[_ModuleConc] = []
    for parsed in files:
        if parsed.tree is None:
            continue  # DET000's problem
        file = parsed.path
        info = _ModuleConc(module=module_name_for(file), path=str(file))
        _ConcVisitor(info, parsed.source.splitlines()).visit(parsed.tree)
        modules.append(info)
    return modules


def run_concurrency_rules(
    paths: _t.Sequence["str | pathlib.Path | ParsedFile"],
    graph: "CallGraph | None" = None,
    entry_modules: "_t.Collection[str] | None" = None,
) -> "list[Finding]":
    """Run CONC001-003 over a source tree with call-graph context."""
    files = parse_python_paths(paths)
    if graph is None:
        graph = build_call_graph(files, entry_modules=entry_modules)
    findings: list[Finding] = []
    for mod in _analyze_modules(files):
        findings.extend(_check_module(mod, graph))
    return findings


def _check_module(mod: _ModuleConc, graph: CallGraph) -> "list[Finding]":
    findings: list[Finding] = []
    callbacks = set(graph.callbacks())

    for cls in mod.classes:
        cls_qual = f"{mod.module}.{cls.name}"
        for method_name in sorted(cls.methods):
            method = cls.methods[method_name]
            qual = f"{cls_qual}.{method_name}"
            info = graph.functions.get(qual)
            if info is None or not graph.is_sim_reachable(qual):
                continue
            if info.is_generator:
                findings.extend(
                    _check_stale_guard(mod, cls, method, qual)
                )
        findings.extend(_check_multi_writer(mod, cls, cls_qual, graph,
                                            callbacks))

    findings.extend(_check_global_mutations(mod, graph))
    return findings


def _check_stale_guard(
    mod: _ModuleConc, cls: _ClassConc, method: _MethodConc, qual: str
) -> "list[Finding]":
    """CONC001: guard read -> yield -> mutation of the same attribute."""
    findings: list[Finding] = []
    yields = sorted(method.yield_lines)
    if not yields:
        return findings
    for attr in sorted(set(method.guard_reads) & set(cls.mutable_attrs)):
        muts = [m for m in method.mutations if m.attr == attr]
        if not muts:
            continue
        # A load of the attribute between the yield and the mutation
        # means the code refreshed its view after resuming — the guard
        # that matters is the re-read, not the pre-yield one.
        mut_lines = {m.line for m in muts}
        guard_lines = set(method.guard_reads[attr])
        # Any load after the yield refreshes the view — including a
        # re-checked guard; only the mutation's own load doesn't count.
        re_reads = sorted(
            line for line in method.reads.get(attr, [])
            if line not in mut_lines
        )
        hazard = None
        for read_line in sorted(guard_lines):
            for mut in sorted(muts, key=lambda m: m.line):
                if mut.line <= read_line:
                    continue
                crossing = [
                    y for y in yields if read_line <= y <= mut.line
                ]
                if not crossing:
                    continue
                last_yield = max(crossing)
                if any(last_yield < r < mut.line for r in re_reads):
                    continue  # view refreshed after the suspension
                hazard = (read_line, mut)
                break
            if hazard:
                break
        if hazard is None:
            continue
        read_line, mut = hazard
        local_qual = f"{cls.name}.{method.name}"
        findings.append(
            Finding(
                code="CONC001",
                severity=Severity.WARNING,
                message=(
                    f"generator {local_qual!r} guards on self.{attr} "
                    f"(line {read_line}), yields, then mutates it (line "
                    f"{mut.line}); other processes run between the check "
                    "and the write, so the guard can be stale"
                ),
                location=Location(path=mod.path, line=read_line),
                suggestion=(
                    "re-check the guard after every yield, or restructure "
                    "so check and mutation happen without suspension "
                    "between them"
                ),
                qualname=local_qual,
                snippet=mut.snippet,
            )
        )
    return findings


def _check_multi_writer(
    mod: _ModuleConc,
    cls: _ClassConc,
    cls_qual: str,
    graph: CallGraph,
    callbacks: "set[str]",
) -> "list[Finding]":
    """CONC002: one attr, order-sensitively mutated by callback + process."""
    findings: list[Finding] = []
    #: attr -> {method qualname: [mutations]} (order-sensitive, reachable)
    writers: dict[str, dict[str, list[_Mutation]]] = {}
    for method_name in sorted(cls.methods):
        method = cls.methods[method_name]
        qual = f"{cls_qual}.{method_name}"
        if not graph.is_sim_reachable(qual):
            continue
        for mut in method.mutations:
            if not mut.order_sensitive or mut.attr not in cls.mutable_attrs:
                continue
            writers.setdefault(mut.attr, {}).setdefault(qual, []).append(mut)

    for attr in sorted(writers):
        by_method = writers[attr]
        callback_writers = sorted(q for q in by_method if q in callbacks)
        process_writers = sorted(
            q for q in by_method
            if q not in callbacks
            and graph.functions[q].is_generator
        )
        if not callback_writers or not process_writers:
            continue
        cb = callback_writers[0]
        proc = process_writers[0]
        line = cls.mutable_attrs[attr]
        local_cb = graph.functions[cb].local_qualname
        local_proc = graph.functions[proc].local_qualname
        findings.append(
            Finding(
                code="CONC002",
                severity=Severity.WARNING,
                message=(
                    f"attribute self.{attr} of {cls.name!r} is mutated "
                    f"both by hook callback {local_cb!r} and by simulation "
                    f"process {local_proc!r}; event order decides the "
                    "final state"
                ),
                location=Location(path=mod.path, line=line),
                suggestion=(
                    "funnel all mutations through one owner (e.g. the "
                    "process), or make both sides idempotent "
                    "(pop(key, None)) and baseline this with that "
                    "justification"
                ),
                qualname=f"{cls.name}.__init__",
                snippet=f"self.{attr}",
            )
        )
    return findings


def _check_global_mutations(
    mod: _ModuleConc, graph: CallGraph
) -> "list[Finding]":
    """CONC003: module-level mutable state mutated from sim-reachable code."""
    findings: list[Finding] = []
    if not mod.module_mutables:
        return findings
    #: global name -> first (qualname, line, snippet) hit, sorted
    hits: dict[str, tuple] = {}
    for local_qual in sorted(mod.global_mutations):
        func_qual = f"{mod.module}.{local_qual}"
        if not graph.is_sim_reachable(func_qual):
            continue
        for name, line, snippet in sorted(mod.global_mutations[local_qual],
                                          key=lambda t: (t[0], t[1])):
            if name in mod.module_mutables and name not in hits:
                hits[name] = (local_qual, line, snippet)
    for name in sorted(hits):
        local_qual, line, snippet = hits[name]
        findings.append(
            Finding(
                code="CONC003",
                severity=Severity.WARNING,
                message=(
                    f"module-level mutable {name!r} (defined line "
                    f"{mod.module_mutables[name]}) is mutated from "
                    f"sim-reachable code {local_qual!r}; every testbed in "
                    "this process shares it, so run N perturbs run N+1"
                ),
                location=Location(path=mod.path, line=line),
                suggestion=(
                    "move the state onto the testbed/class instance, or "
                    "reset it at the start of every run"
                ),
                qualname=local_qual,
                snippet=snippet,
            )
        )
    return findings


def _register_conc_rules() -> None:
    specs = [
        ("CONC001", "stale-guard-across-yield",
         "generator checks shared state, yields, then acts on the stale "
         "check"),
        ("CONC002", "callback-process-shared-write",
         "callback and simulation process both mutate one shared "
         "attribute"),
        ("CONC003", "module-state-mutated-in-sim",
         "module-level mutable state mutated from sim-reachable code"),
    ]
    for code, name, description in specs:
        rule(code, name, pack="conc", severity=Severity.WARNING,
             description=description)(run_concurrency_rules)


_register_conc_rules()
