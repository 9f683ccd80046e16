"""Rule pack ``det``: the determinism sanitizer's per-file AST walk.

The reproduction's whole measurement methodology (EXPERIMENTS.md
"Determinism", the PPoDS measure-learn loop) rests on one invariant:
the same seed produces the same run.  Every stochastic component must
draw from a generator derived via :func:`repro.sim.rng.derive_seed`,
and simulation code must read the *virtual* clock, never the wall
clock.  This module is the per-file half of that enforcement: one AST
walk per source file yields both the file-local findings

- ``DET000`` — the source does not parse;
- ``DET001`` — unseeded ``np.random.default_rng()`` / ``RandomState()``
  / ``random.Random()`` (a private stream seeded from OS entropy);
- ``DET004`` — module-level mutable state in simulation modules (shared
  across testbeds built in one process, so run N can perturb run N+1);
  "simulation modules" are those under ``sim/`` or ``netsim/`` or named
  ``chaos``;

and the *taint sources* the call-graph pass (:mod:`repro.analysis.taint`)
judges by reachability: wall-clock reads, stdlib ``random`` draws
(``random.seed(...)`` and ``random.Random(seed)`` are exempt),
environment reads (``os.environ`` / ``os.getenv``) and order-sensitive
iteration (``for x in set(...)``, unsorted ``os.listdir``) — see
:func:`scan_file`.  :func:`parse_python_paths` reads and parses each
file once for all three source passes (call graph, det, conc).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing as _t

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.registry import rule

__all__ = [
    "MUTABLE_CONSTRUCTORS",
    "lint_source",
    "lint_python_paths",
    "is_sim_path",
    "scan_file",
    "expand_python_paths",
    "parse_source",
    "parse_python_paths",
    "ParsedFile",
    "SourceHit",
]

#: path components that mark simulation-critical code
_SIM_DIR_MARKERS = {"sim", "netsim"}
_SIM_FILE_MARKERS = ("chaos",)

#: wall-clock calls: (module, attribute) pairs the sanitizer flags
_WALL_CLOCK_TIME_ATTRS = {"time", "time_ns"}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: constructors whose result is mutable state: DET004 flags it at module
#: level, the conc pack tracks it on ``self`` attributes and module names
MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter",
}

#: stdlib ``random`` attributes that *seed* rather than draw — calling
#: them is determinism hygiene, not a violation
_RANDOM_SEEDING_ATTRS = {"seed", "getstate", "setstate"}

#: filesystem/glob calls whose result order is OS-dependent
_FS_ORDER_CALLS = {
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
}
_FS_ORDER_METHODS = {"iterdir", "glob", "rglob"}


def is_sim_path(path: "str | pathlib.Path") -> bool:
    """True when the file lives on a simulation-critical code path."""
    p = pathlib.Path(path)
    if _SIM_DIR_MARKERS & {part.lower() for part in p.parts[:-1]}:
        return True
    return any(marker in p.stem.lower() for marker in _SIM_FILE_MARKERS)


def expand_python_paths(
    paths: _t.Iterable["str | pathlib.Path"],
) -> "list[pathlib.Path]":
    """Expand files and directories into a sorted, de-duplicated list of
    ``*.py`` files (the unit every source pass walks)."""
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        root = pathlib.Path(raw)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in candidates:
            if file not in seen:
                seen.add(file)
                files.append(file)
    return files


@dataclasses.dataclass(frozen=True)
class ParsedFile:
    """One Python source read and parsed once, for every source pass."""

    path: "str | pathlib.Path"
    source: str
    #: None when the source does not parse; ``error`` then says why
    tree: "ast.Module | None"
    error: "SyntaxError | None" = None


def parse_source(source: str, path: "str | pathlib.Path") -> ParsedFile:
    """Parse one source text (a syntax error is kept, not raised)."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ParsedFile(path, source, None, exc)
    return ParsedFile(path, source, tree)


def parse_python_paths(
    paths: _t.Iterable["str | pathlib.Path | ParsedFile"],
) -> "list[ParsedFile]":
    """Read and parse every file of :func:`expand_python_paths` once.

    A list of :class:`ParsedFile` passes through unchanged, so the call
    graph, the det pack and the conc pack can share one parse per file.
    """
    items = list(paths)
    if all(isinstance(item, ParsedFile) for item in items):
        return items
    return [
        parse_source(file.read_text(), file)
        for file in expand_python_paths(items)
    ]


@dataclasses.dataclass(frozen=True)
class SourceHit:
    """One raw analyzer hit, before severity/reporting policy."""

    #: DET001 / DET004, or a taint-source kind: ``wall-clock``,
    #: ``global-rng``, ``env-read``, ``unordered-iter``
    code: str
    line: int
    detail: str
    #: dotted in-module scope ("Cls.method"); "" at module level
    qualname: str
    snippet: str


class _Analyzer(ast.NodeVisitor):
    """One pass over a module, accumulating raw hits per rule code."""

    def __init__(self, lines: "list[str]") -> None:
        self._lines = lines
        #: local alias -> canonical module ("numpy.random", "random", ...)
        self.module_aliases: dict[str, str] = {}
        #: local name -> canonical dotted origin ("random.randint", ...)
        self.name_origins: dict[str, str] = {}
        self.hits: list[SourceHit] = []
        self._scope: list[str] = []

    @property
    def _depth(self) -> int:
        return len(self._scope)

    def _hit(self, code: str, line: int, detail: str) -> None:
        snippet = (
            self._lines[line - 1].strip() if 1 <= line <= len(self._lines)
            else ""
        )
        self.hits.append(
            SourceHit(code=code, line=line, detail=detail,
                      qualname=".".join(self._scope), snippet=snippet)
        )

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.name_origins[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )
        self.generic_visit(node)

    # -- resolution helpers --------------------------------------------------

    def _canonical(self, node: ast.expr) -> str:
        """Resolve a call target to a dotted path through known aliases."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            root = cur.id
            if root in self.module_aliases:
                parts.append(self.module_aliases[root])
            elif root in self.name_origins:
                parts.append(self.name_origins[root])
            else:
                parts.append(root)
        else:
            return ""
        return ".".join(reversed(parts))

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._canonical(node.func)
        if dotted:
            self._check_rng(node, dotted)
            self._check_stdlib_random(node, dotted)
            self._check_wall_clock(node, dotted)
            self._check_env_read(node, dotted)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf in ("default_rng", "RandomState"):
            if not (dotted.startswith("numpy.") or "random" in dotted):
                return
        elif dotted != "random.Random":
            return
        if node.args or node.keywords:
            return  # seeded (or at least explicitly parameterized)
        self._hit("DET001", node.lineno, f"{leaf}() has no seed")

    def _check_stdlib_random(self, node: ast.Call, dotted: str) -> None:
        if not dotted.startswith("random."):
            return
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf in _RANDOM_SEEDING_ATTRS or leaf == "Random":
            # random.seed(...) is determinism hygiene, not a draw;
            # random.Random(...) builds a private stream (DET001 judges
            # whether it is seeded)
            return
        self._hit("global-rng", node.lineno, dotted)

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] == "time" and parts[-1] in _WALL_CLOCK_TIME_ATTRS:
            self._hit("wall-clock", node.lineno, dotted)
            return
        if parts[0] == "datetime" and parts[-1] in _WALL_CLOCK_DATETIME_ATTRS:
            self._hit("wall-clock", node.lineno, dotted)
            return
        # `from datetime import datetime` -> datetime.now()
        origin = self.name_origins.get(parts[0], "")
        if (
            origin.startswith("datetime.")
            and len(parts) > 1
            and parts[-1] in _WALL_CLOCK_DATETIME_ATTRS
        ):
            self._hit("wall-clock", node.lineno, f"{origin}.{parts[-1]}")

    def _check_env_read(self, node: ast.Call, dotted: str) -> None:
        if dotted in ("os.getenv", "os.environ.get"):
            self._hit("env-read", node.lineno, dotted)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._canonical(node.value) == "os.environ":
            self._hit("env-read", node.lineno, "os.environ[...]")
        self.generic_visit(node)

    def _iter_order_detail(self, expr: ast.expr) -> str:
        """Classify an iterable expression as order-unstable, or ''."""
        if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
            return "set literal"
        if isinstance(expr, ast.Call):
            dotted = self._canonical(expr.func)
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf in ("set", "frozenset"):
                return f"{leaf}(...)"
            if dotted in _FS_ORDER_CALLS:
                return f"{dotted}(...)"
            if leaf in _FS_ORDER_METHODS and dotted.startswith(
                ("pathlib.", "Path.")
            ):
                return f"{dotted}(...)"
        return ""

    def _check_iteration(self, iter_expr: ast.expr, line: int) -> None:
        detail = self._iter_order_detail(iter_expr)
        if detail:
            self._hit("unordered-iter", line, detail)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.lineno)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter.lineno)
        self.generic_visit(node)

    # -- module-level state ----------------------------------------------------

    def _flag_mutable(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name.startswith("__") and name.endswith("__"):
            return  # __all__ and friends are convention, not state
        mutable = isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        )
        if isinstance(value, ast.Call):
            callee = self._canonical(value.func).rsplit(".", 1)[-1]
            mutable = callee in MUTABLE_CONSTRUCTORS
        if mutable:
            self._hit("DET004", target.lineno, name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth == 0:
            for target in node.targets:
                self._flag_mutable(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._depth == 0 and node.value is not None:
            self._flag_mutable(node.target, node.value)
        self.generic_visit(node)

    # -- scope tracking ----------------------------------------------------

    def _scoped(self, node: ast.AST) -> None:
        self._scope.append(getattr(node, "name", "<lambda>"))
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped
    visit_ClassDef = _scoped
    visit_Lambda = _scoped


_MESSAGES = {
    "DET001": (
        "unseeded random generator: {detail}; derive the seed via "
        "repro.sim.rng.derive_seed so reruns reproduce",
        "pass a seed: np.random.default_rng(derive_seed(root, \"stream\"))",
    ),
    "DET004": (
        "module-level mutable state {detail!r} is shared by every testbed "
        "built in this process; run N can perturb run N+1",
        "move the state into a class/testbed instance or make it immutable",
    ),
}

#: taint-source kinds: judged by :mod:`repro.analysis.taint`, not here
TAINT_KINDS = ("wall-clock", "global-rng", "env-read", "unordered-iter")


def scan_file(parsed: ParsedFile) -> "tuple[list[Finding], list[SourceHit]]":
    """Walk one parsed file once: its file-local findings (DET000,
    DET001, DET004) and its taint sources (hits whose ``code`` is one
    of :data:`TAINT_KINDS`)."""
    path, exc = parsed.path, parsed.error
    if parsed.tree is None:
        error = Finding(
            code="DET000",
            severity=Severity.ERROR,
            message=f"source does not parse: {exc.msg}",
            location=Location(path=str(path), line=exc.lineno or 0),
            suggestion="fix the syntax error before linting",
        )
        return [error], []
    analyzer = _Analyzer(parsed.source.splitlines())
    analyzer.visit(parsed.tree)
    sim = is_sim_path(path)
    findings: list[Finding] = []
    sources: list[SourceHit] = []
    for hit in analyzer.hits:
        if hit.code in TAINT_KINDS:
            sources.append(hit)
            continue
        if hit.code == "DET004" and not sim:
            continue
        message, suggestion = _MESSAGES[hit.code]
        findings.append(
            Finding(
                code=hit.code,
                severity=(
                    Severity.ERROR if hit.code == "DET001" else Severity.WARNING
                ),
                message=message.format(detail=hit.detail),
                location=Location(path=str(path), line=hit.line),
                suggestion=suggestion,
                qualname=hit.qualname,
                snippet=hit.snippet,
            )
        )
    return findings, sources


def lint_source(
    source: str, path: "str | pathlib.Path" = "<string>"
) -> "list[Finding]":
    """The file-local determinism findings for one Python source text."""
    return scan_file(parse_source(source, path))[0]


def lint_python_paths(
    paths: _t.Iterable["str | pathlib.Path"],
) -> "list[Finding]":
    """:func:`lint_source` over files and directories (recursing into
    ``*.py``)."""
    findings: list[Finding] = []
    for parsed in parse_python_paths(paths):
        findings.extend(scan_file(parsed)[0])
    return findings


# Registered for discoverability (--list-rules, docs); the engine runs
# scan_file through repro.analysis.taint.run_det_pack since the det
# pack's subject is a file, not a view.
def _register_det_rules() -> None:
    specs = [
        ("DET001", "unseeded-rng", Severity.ERROR,
         "np.random.default_rng()/RandomState() called without a seed"),
        ("DET004", "module-level-mutable-state", Severity.WARNING,
         "module-level list/dict/set state in simulation modules"),
    ]
    for code, name, severity, description in specs:
        rule(code, name, pack="det", severity=severity,
             description=description)(lint_source)


_register_det_rules()
