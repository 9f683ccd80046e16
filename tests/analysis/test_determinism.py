"""Det pack: the per-file AST walk's findings (DET000/DET001/DET004) and
the wall-clock / stdlib-random sources it hands to the taint pass."""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis import (
    LintEngine,
    Severity,
    is_sim_path,
    lint_python_paths,
    lint_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SIM = "src/repro/sim/engine.py"
PLAIN = "src/repro/viz/plots.py"


def lint(source: str, path: str = SIM):
    return lint_source(textwrap.dedent(source), path=path)


def codes_of(findings):
    return {f.code for f in findings}


def lint_module(tmp_path, source: str, name: str = "driver"):
    """Lint ``source`` as module ``name`` through the call-graph pass;
    functions in ``driver`` are simulation entry points."""
    path = tmp_path / f"{name}.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    engine = LintEngine(entry_modules=["driver"])
    return engine.lint_paths([path]).findings


# --------------------------------------------------------------- sim paths


def test_is_sim_path():
    assert is_sim_path("src/repro/sim/kernel.py")
    assert is_sim_path("src/repro/netsim/flows.py")
    assert is_sim_path("src/repro/cluster/chaos_injector.py")
    assert not is_sim_path("src/repro/viz/plots.py")
    assert not is_sim_path("src/repro/similarity.py")  # 'sim' only as a dir


# ----------------------------------------------------------------- DET001


def test_det001_unseeded_default_rng():
    findings = lint("""
        import numpy as np
        rng = np.random.default_rng()
    """)
    assert codes_of(findings) == {"DET001"}
    assert findings[0].severity is Severity.ERROR


def test_det001_seeded_rng_is_clean():
    assert lint("""
        import numpy as np
        import random
        rng = np.random.default_rng(42)
        rng2 = np.random.default_rng(seed=7)
        rng3 = random.Random(7)
    """) == []


def test_det001_from_import_and_alias():
    findings = lint("""
        from numpy.random import default_rng
        r = default_rng()
    """)
    assert codes_of(findings) == {"DET001"}
    findings = lint("""
        import numpy.random as npr
        r = npr.RandomState()
    """)
    assert codes_of(findings) == {"DET001"}
    # random.Random() is a private stream seeded from OS entropy: the
    # same defect as an unseeded numpy generator, not a global draw.
    findings = lint("""
        import random
        from random import Random
        a = random.Random()
        b = Random()
    """)
    assert [f.code for f in findings] == ["DET001", "DET001"]
    assert "Random() has no seed" in findings[0].message


def test_det001_fires_outside_sim_paths_too():
    findings = lint("import numpy as np\nr = np.random.default_rng()\n",
                    path=PLAIN)
    assert codes_of(findings) == {"DET001"}
    assert findings[0].severity is Severity.ERROR


def test_unrelated_default_rng_name_not_flagged():
    # A local helper that happens to be called default_rng, no numpy link.
    assert lint("""
        def default_rng():
            return 4
        r = default_rng()
    """) == []


# ------------------------------------- stdlib random -> DET011 (taint pass)


def test_det002_stdlib_random_severity_by_path(tmp_path):
    # Reachability, not the file's path, decides: a draw in a
    # sim-reachable function is an error under any directory, and the
    # same draw in a module nothing calls stays quiet.
    src = """
        import random

        def run():
            return random.randint(0, 5)
    """
    for folder in ("sim", "viz"):
        (f,) = lint_module(tmp_path / folder, src)
        assert f.code == "DET011" and f.severity is Severity.ERROR
        assert "random.randint()" in f.message
        assert "'driver.run'" in f.message
    assert lint_module(tmp_path / "plain", src, name="plots") == []


def test_det002_aliased_import(tmp_path):
    (f,) = lint_module(tmp_path, """
        import random as rnd

        def run():
            return rnd.random()
    """)
    assert f.code == "DET011"
    assert "random.random()" in f.message


def test_stdlib_random_seeding_calls_are_exempt(tmp_path):
    assert lint_module(tmp_path, """
        import random

        def run():
            random.seed(3)
            return random.Random(7).random()
    """) == []


# --------------------------------------- wall clock -> DET010 (taint pass)


def test_det003_wall_clock_reads(tmp_path):
    findings = lint_module(tmp_path, """
        import time
        from datetime import datetime

        def run():
            a = time.time()
            b = time.time_ns()
            c = datetime.now()
            d = datetime.utcnow()
            return a, b, c, d
    """)
    assert codes_of(findings) == {"DET010"}
    assert len(findings) == 4
    assert all(f.severity is Severity.ERROR for f in findings)
    assert all(f.qualname == "run" for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "datetime.datetime.now()" in messages
    assert "datetime.datetime.utcnow()" in messages


def test_det003_monotonic_not_flagged(tmp_path):
    # time.monotonic / perf_counter are not in the flagged set (they are
    # still wall-clock-ish, but the rule targets the common offenders).
    assert lint_module(tmp_path, """
        import time

        def run():
            return time.monotonic()
    """) == []


def test_module_level_wall_clock_read_is_det010(tmp_path):
    # Import-time code runs whenever the simulation imports the module,
    # so no reachability check applies: even a module nothing calls
    # reports it.
    (f,) = lint_module(tmp_path, """
        import time

        STARTED = time.time()
    """, name="plots")
    assert f.code == "DET010" and f.severity is Severity.ERROR
    assert f.qualname == ""
    assert "runs at import time of module 'plots'" in f.message


# ----------------------------------------------------------------- DET004


def test_det004_module_level_mutable_state_in_sim():
    findings = lint("""
        CACHE = {}
        ITEMS = []
        SEEN = set()
    """)
    assert codes_of(findings) == {"DET004"}
    assert len(findings) == 3
    assert all(f.severity is Severity.WARNING for f in findings)


def test_det004_quiet_outside_sim_paths():
    assert lint_source("CACHE = {}\n", path=PLAIN) == []


def test_det004_ignores_function_and_class_scope():
    assert lint("""
        def f():
            local = {}
            return local

        class C:
            table = {}
    """) == []


def test_det004_ignores_dunders_and_immutables():
    assert lint("""
        __all__ = ["a", "b"]
        NAMES = ("a", "b")
        LIMIT = 5
    """) == []


def test_det004_constructor_calls():
    findings = lint("""
        from collections import defaultdict
        REGISTRY = defaultdict(list)
        TABLE = dict()
    """)
    assert codes_of(findings) == {"DET004"}
    assert len(findings) == 2


# ----------------------------------------------------------------- DET000


def test_det000_syntax_error():
    (f,) = lint_source("def broken(:\n", path=SIM)
    assert f.code == "DET000"
    assert f.severity is Severity.ERROR


# ------------------------------------------------------------ path walking


def test_lint_python_paths_fixture_file():
    findings = lint_python_paths([FIXTURES / "unseeded_rng.py"])
    assert "DET001" in codes_of(findings)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors  # the acceptance fixture must fail the lint


def test_lint_python_paths_directory_recurses():
    findings = lint_python_paths([FIXTURES])
    assert "DET001" in codes_of(findings)


def test_repo_sources_are_clean():
    # Satellite: the sanitizer run over the shipped package finds nothing
    # (no unseeded RNGs, no wall-clock reads, no module-level mutable
    # state on simulation paths).
    root = pathlib.Path(__file__).resolve().parents[2]
    findings = lint_python_paths([root / "src" / "repro"])
    assert findings == []
