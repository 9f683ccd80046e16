"""Rule pack ``det``: the determinism pass over Python sources.

A nondeterminism source — wall-clock read, process-global RNG draw,
environment read, order-unstable iteration — matters for a
reproduction only if it **can run during a simulation**.  The same
source in a function nobody calls from the simulation is inert;
reachable from ``WorkflowDriver.run`` or the admission gateway it
silently makes two same-seed runs diverge.

The pass walks every file once with
:func:`repro.analysis.determinism.scan_file`, which yields the
file-local findings (DET000/DET001/DET004) and the taint sources, and
judges each source against the whole-program
:class:`~repro.analysis.callgraph.CallGraph`.  A source inside a
function is reported when that function is sim-reachable, quoting the
full call path from the entry point::

    driver.run -> stages.download -> clock.stamp: DET010 error:
    wall-clock read time.time() is reachable from simulation entry
    point 'driver.run' ...

A module-level source is reported without a reachability check: it
runs at import time, so it runs whenever the simulation imports the
module.

Codes (all errors — reachability **is** the severity argument):

- ``DET010`` — wall-clock read (``time.time``, ``datetime.now``...).
- ``DET011`` — stdlib ``random`` draw (process-global state).
- ``DET012`` — environment read (``os.environ``/``os.getenv``): runs
  depend on ambient shell state no seed controls.
- ``DET013`` — iteration over order-unstable collections (``set``,
  ``frozenset``, unsorted ``os.listdir``): hash/OS order leaks into
  event order.
"""

from __future__ import annotations

import pathlib
import typing as _t

from repro.analysis.callgraph import CallGraph, build_call_graph, module_name_for
from repro.analysis.determinism import ParsedFile, parse_python_paths, scan_file
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.registry import rule

__all__ = ["run_det_pack", "run_taint_analysis", "TAINT_CODES"]

#: taint-source kind -> rule code
_KIND_CODES = {
    "wall-clock": "DET010",
    "global-rng": "DET011",
    "env-read": "DET012",
    "unordered-iter": "DET013",
}

TAINT_CODES = tuple(sorted(_KIND_CODES.values()))

_KIND_MESSAGES = {
    "wall-clock": (
        "wall-clock read {detail}()",
        "read env.now (virtual time) or inject timestamps explicitly",
    ),
    "global-rng": (
        "process-global RNG draw {detail}()",
        "draw from a seeded generator: "
        "np.random.default_rng(derive_seed(root, ...))",
    ),
    "env-read": (
        "environment read {detail}",
        "resolve configuration before the run and pass it in as data",
    ),
    "unordered-iter": (
        "iteration over order-unstable {detail}",
        "wrap the iterable in sorted(...) to pin the event order",
    ),
}


def run_det_pack(
    paths: _t.Sequence["str | pathlib.Path | ParsedFile"],
    graph: "CallGraph | None" = None,
    entry_modules: "_t.Collection[str] | None" = None,
) -> "list[Finding]":
    """The whole det pack: file-local findings plus DET010-013."""
    files = parse_python_paths(paths)
    if graph is None:
        graph = build_call_graph(files, entry_modules=entry_modules)
    findings: list[Finding] = []
    for parsed in files:
        local, sources = scan_file(parsed)
        findings += local
        file = parsed.path
        module = module_name_for(file)
        for hit in sources:
            raw_message, suggestion = _KIND_MESSAGES[hit.code]
            if hit.qualname:
                func_qual = f"{module}.{hit.qualname}"
                if not graph.is_sim_reachable(func_qual):
                    continue
                path_text = graph.format_path(func_qual)
                entry = path_text.split(" -> ", 1)[0]
                where = (
                    f"is reachable from simulation entry point {entry!r}: "
                    f"{path_text}"
                )
            else:
                where = f"runs at import time of module {module!r}"
            findings.append(
                Finding(
                    code=_KIND_CODES[hit.code],
                    severity=Severity.ERROR,
                    message=(
                        f"{raw_message.format(detail=hit.detail)} {where}; "
                        "same-seed runs will diverge"
                    ),
                    location=Location(path=str(file), line=hit.line),
                    suggestion=suggestion,
                    qualname=hit.qualname,
                    snippet=hit.snippet,
                )
            )
    return findings


def run_taint_analysis(
    paths: _t.Sequence["str | pathlib.Path | ParsedFile"],
    graph: "CallGraph | None" = None,
    entry_modules: "_t.Collection[str] | None" = None,
) -> "list[Finding]":
    """Only the taint findings (DET010-013) of :func:`run_det_pack`."""
    return [
        f for f in run_det_pack(paths, graph, entry_modules)
        if f.code in TAINT_CODES
    ]


def _register_taint_rules() -> None:
    specs = [
        ("DET010", "sim-reachable-wall-clock",
         "wall-clock read reachable from a simulation entry point"),
        ("DET011", "sim-reachable-global-rng",
         "stdlib random (process-global RNG) reachable from a "
         "simulation entry point"),
        ("DET012", "sim-reachable-env-read",
         "os.environ/os.getenv read reachable from a simulation "
         "entry point"),
        ("DET013", "sim-reachable-unordered-iter",
         "iteration over set/os.listdir order reachable from a "
         "simulation entry point"),
    ]
    for code, name, description in specs:
        rule(code, name, pack="det", severity=Severity.ERROR,
             description=description)(run_taint_analysis)


_register_taint_rules()
