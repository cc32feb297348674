"""Fixture tests for the reprolint static-analysis subsystem.

Every RPR rule gets at least one violating and one clean snippet, plus
round-trip tests for the baseline workflow, pragma suppression and the
CLI surface.
"""

import json

import pytest

from repro.analysis import (
    Baseline,
    analyze_paths,
    analyze_source,
    get_rule,
    load_baseline,
    main,
    rule_ids,
    write_baseline,
)
from repro.errors import AnalysisError


def ids_of(violations):
    """The set of rule ids present in a list of violations."""
    return {v.rule_id for v in violations}


# ---------------------------------------------------------------------------
# Rule fixtures: one violating + one clean snippet per rule.
# ---------------------------------------------------------------------------


class TestRPR001Validation:
    def test_flags_raw_coordinate_use(self):
        src = (
            "def density(points, bandwidth):\n"
            '    """doc"""\n'
            "    return points[:, 0] * bandwidth\n"
        )
        assert "RPR001" in ids_of(analyze_source(src))

    def test_accepts_validated_coordinates(self):
        src = (
            "from repro._validation import as_points\n"
            "def density(points, bandwidth):\n"
            '    """doc"""\n'
            "    pts = as_points(points)\n"
            "    return pts[:, 0] * bandwidth\n"
        )
        assert "RPR001" not in ids_of(analyze_source(src))

    def test_accepts_whole_delegation(self):
        src = (
            "def density(points, bandwidth):\n"
            '    """doc"""\n'
            "    return _impl(points, bandwidth)\n"
        )
        assert "RPR001" not in ids_of(analyze_source(src))

    def test_private_functions_exempt(self):
        src = (
            "def _impl(points):\n"
            "    return points[:, 0]\n"
        )
        assert "RPR001" not in ids_of(analyze_source(src))


class TestRPR002Raises:
    def test_flags_foreign_exception(self):
        src = (
            "def f():\n"
            '    """doc"""\n'
            "    raise ValueError('nope')\n"
        )
        assert "RPR002" in ids_of(analyze_source(src))

    def test_accepts_library_exceptions_and_reraise(self):
        src = (
            "from repro.errors import ParameterError\n"
            "def f():\n"
            '    """doc"""\n'
            "    try:\n"
            "        raise ParameterError('bad')\n"
            "    except ParameterError as exc:\n"
            "        raise\n"
        )
        assert "RPR002" not in ids_of(analyze_source(src))

    def test_accepts_local_repro_error_subclass(self):
        src = (
            "from repro.errors import ReproError\n"
            "class ShardError(ReproError):\n"
            '    """doc"""\n'
            "def f():\n"
            '    """doc"""\n'
            "    raise ShardError('bad shard')\n"
        )
        violations = analyze_source(src)
        assert "RPR002" not in ids_of(violations)

    def test_flags_rethrow_of_unknown_name(self):
        src = (
            "def f(exc_type):\n"
            '    """doc"""\n'
            "    raise RuntimeError\n"
        )
        assert "RPR002" in ids_of(analyze_source(src))


class TestRPR003Assert:
    def test_flags_assert(self):
        src = (
            "def f(x):\n"
            '    """doc"""\n'
            "    assert x > 0\n"
            "    return x\n"
        )
        assert "RPR003" in ids_of(analyze_source(src))

    def test_accepts_validation_raise(self):
        src = (
            "from repro._validation import check_positive\n"
            "def f(x):\n"
            '    """doc"""\n'
            "    return check_positive(x, 'x')\n"
        )
        assert "RPR003" not in ids_of(analyze_source(src))


class TestRPR004MutableDefault:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[1, 2]"]
    )
    def test_flags_mutable_defaults(self, default):
        src = (
            f"def f(x={default}):\n"
            '    """doc"""\n'
            "    return x\n"
        )
        assert "RPR004" in ids_of(analyze_source(src))

    def test_flags_mutable_kwonly_default(self):
        src = (
            "def f(*, x=[]):\n"
            '    """doc"""\n'
            "    return x\n"
        )
        assert "RPR004" in ids_of(analyze_source(src))

    def test_accepts_immutable_defaults(self):
        src = (
            "def f(x=None, y=(), z='a', n=3):\n"
            '    """doc"""\n'
            "    return x, y, z, n\n"
        )
        assert "RPR004" not in ids_of(analyze_source(src))


class TestRPR005KernelContract:
    def test_flags_incomplete_kernel_subclass(self):
        src = (
            "from repro.core.kernels import Kernel\n"
            "class BrokenKernel(Kernel):\n"
            '    """doc"""\n'
            "    def evaluate_sq(self, d2, bandwidth):\n"
            "        return d2\n"
        )
        violations = [v for v in analyze_source(src) if v.rule_id == "RPR005"]
        assert len(violations) == 1
        assert "'name'" in violations[0].message
        assert "support_radius" in violations[0].message
        assert "integral" in violations[0].message

    def test_accepts_complete_kernel_subclass(self):
        src = (
            "from repro.core.kernels import Kernel\n"
            "class FineKernel(Kernel):\n"
            '    """doc"""\n'
            "    name = 'fine'\n"
            "    def evaluate_sq(self, d2, bandwidth):\n"
            "        return d2\n"
            "    def support_radius(self, bandwidth):\n"
            "        return bandwidth\n"
            "    def integral(self, bandwidth):\n"
            "        return 1.0\n"
        )
        assert "RPR005" not in ids_of(analyze_source(src))

    def test_unrelated_class_ignored(self):
        src = (
            "class Plain:\n"
            '    """doc"""\n'
        )
        assert "RPR005" not in ids_of(analyze_source(src))


class TestRPR006ExceptHygiene:
    def test_flags_bare_except(self):
        src = (
            "def f():\n"
            '    """doc"""\n'
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        raise\n"
        )
        assert "RPR006" in ids_of(analyze_source(src))

    def test_flags_swallowed_exception(self):
        src = (
            "def f():\n"
            '    """doc"""\n'
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert "RPR006" in ids_of(analyze_source(src))

    def test_accepts_handled_exception(self):
        src = (
            "from repro.errors import DataError\n"
            "def f():\n"
            '    """doc"""\n'
            "    try:\n"
            "        return g()\n"
            "    except ValueError as exc:\n"
            "        raise DataError('bad input') from exc\n"
        )
        assert "RPR006" not in ids_of(analyze_source(src))


class TestRPR007Docstrings:
    def test_flags_missing_docstrings(self):
        src = (
            "def f():\n"
            "    return 1\n"
            "class C:\n"
            "    pass\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR007"]
        assert {v.symbol for v in found} == {"f", "C"}

    def test_accepts_documented_and_private(self):
        src = (
            "def f():\n"
            '    """doc"""\n'
            "def _helper():\n"
            "    return 2\n"
        )
        assert "RPR007" not in ids_of(analyze_source(src))


class TestRPR008DunderAll:
    def test_flags_undefined_export(self):
        src = (
            "__all__ = ['missing']\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR008"]
        assert len(found) == 1
        assert "missing" in found[0].message

    def test_flags_unlisted_public_def(self):
        src = (
            "__all__ = ['f']\n"
            "def f():\n"
            '    """doc"""\n'
            "def g():\n"
            '    """doc"""\n'
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR008"]
        assert len(found) == 1
        assert "'g'" in found[0].message

    def test_accepts_consistent_all(self):
        src = (
            "import os\n"
            "__all__ = ['f', 'CONST', 'os']\n"
            "CONST = 3\n"
            "def f():\n"
            '    """doc"""\n'
        )
        assert "RPR008" not in ids_of(analyze_source(src))

    def test_module_without_all_is_ignored(self):
        src = (
            "def f():\n"
            '    """doc"""\n'
        )
        assert "RPR008" not in ids_of(analyze_source(src))


class TestRPR009SharedExecutor:
    def test_flags_direct_futures_import(self):
        src = "from concurrent.futures import ThreadPoolExecutor\n"
        found = [v for v in analyze_source(src) if v.rule_id == "RPR009"]
        assert len(found) == 1
        assert "repro.parallel" in found[0].message

    def test_flags_multiprocessing_import(self):
        src = "import multiprocessing\n"
        assert "RPR009" in ids_of(analyze_source(src))

    def test_flags_dotted_import(self):
        src = "import concurrent.futures\n"
        assert "RPR009" in ids_of(analyze_source(src))

    def test_flags_threading_import(self):
        src = "import threading\n"
        assert "RPR009" in ids_of(analyze_source(src))

    def test_executor_module_is_exempt(self):
        src = "from concurrent.futures import ThreadPoolExecutor\n"
        found = analyze_source(src, path="src/repro/parallel.py")
        assert "RPR009" not in ids_of(found)

    def test_shared_layer_import_is_clean(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "__all__ = []\n"
        )
        assert "RPR009" not in ids_of(analyze_source(src))

    def test_relative_import_is_clean(self):
        # Relative imports (level > 0) never reach the pool modules.
        src = "from ..parallel import parallel_map\n"
        assert "RPR009" not in ids_of(analyze_source(src))

    def test_serve_may_import_threading(self):
        # The service layer's sync primitives are a sanctioned carve-out.
        src = "import threading\n__all__ = []\n"
        found = analyze_source(src, path="src/repro/serve/service.py")
        assert "RPR009" not in ids_of(found)

    def test_serve_still_cannot_import_futures(self):
        # The carve-out covers synchronisation only, never compute pools.
        src = "from concurrent.futures import ThreadPoolExecutor\n"
        found = analyze_source(src, path="src/repro/serve/service.py")
        assert "RPR009" in ids_of(found)


class TestRPR016ServiceBoundary:
    def test_flags_http_import_outside_serve(self):
        src = "from http.server import ThreadingHTTPServer\n"
        found = [v for v in analyze_source(src) if v.rule_id == "RPR016"]
        assert len(found) == 1
        assert "repro.serve" in found[0].message

    def test_flags_socket_import(self):
        src = "import socket\n"
        assert "RPR016" in ids_of(analyze_source(src))

    def test_flags_urllib_request_import(self):
        src = "import urllib.request\n"
        assert "RPR016" in ids_of(analyze_source(src))

    def test_flags_from_urllib_import_request(self):
        # The subtree named by the alias, not the module, is still caught.
        src = "from urllib import request\n"
        assert "RPR016" in ids_of(analyze_source(src))

    def test_urllib_parse_is_clean(self):
        # URL string parsing is pure computation, not transport.
        src = "from urllib.parse import urlsplit\n__all__ = []\n"
        assert "RPR016" not in ids_of(analyze_source(src))

    def test_serve_package_is_exempt(self):
        src = "from http.server import BaseHTTPRequestHandler\nimport socket\n"
        found = analyze_source(src, path="src/repro/serve/frontend.py")
        assert "RPR016" not in ids_of(found)


class TestRPR010TimingDiscipline:
    def test_flags_perf_counter_call(self):
        src = "import time\nstart = time.perf_counter()\n"
        found = [v for v in analyze_source(src) if v.rule_id == "RPR010"]
        assert len(found) == 1
        assert "obs.span" in found[0].message

    def test_flags_monotonic_call(self):
        src = "import time\nstart = time.monotonic()\n"
        assert "RPR010" in ids_of(analyze_source(src))

    def test_flags_ns_variants(self):
        src = "import time\na = time.perf_counter_ns()\nb = time.monotonic_ns()\n"
        found = [v for v in analyze_source(src) if v.rule_id == "RPR010"]
        assert len(found) == 2

    def test_flags_from_import(self):
        src = "from time import perf_counter\n"
        assert "RPR010" in ids_of(analyze_source(src))

    def test_obs_module_is_exempt(self):
        src = "import time\nstart = time.perf_counter()\n"
        found = analyze_source(src, path="src/repro/obs.py")
        assert "RPR010" not in ids_of(found)

    def test_wall_clock_time_is_clean(self):
        # time.time()/sleep() are not monotonic-clock reads.
        src = "import time\nnow = time.time()\ntime.sleep(0)\n"
        assert "RPR010" not in ids_of(analyze_source(src))

    def test_plain_time_import_is_clean(self):
        src = "from time import sleep\nimport time\n"
        assert "RPR010" not in ids_of(analyze_source(src))


class TestRPR011KwargForwarding:
    def test_flags_dropped_parameter(self):
        src = (
            "def inner(data, workers=None):\n"
            '    """doc"""\n'
            "    return data\n"
            "def outer(data, workers=None):\n"
            '    """doc"""\n'
            "    return inner(data)\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR011"]
        assert len(found) == 1
        assert "drops 'workers'" in found[0].message

    def test_flags_hardcoded_parameter(self):
        src = (
            "def inner(data, workers=None):\n"
            '    """doc"""\n'
            "    return data\n"
            "def outer(data, workers=None):\n"
            '    """doc"""\n'
            "    return inner(data, workers=4)\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR011"]
        assert len(found) == 1
        assert "hardcodes" in found[0].message

    def test_accepts_forwarded_parameter(self):
        src = (
            "def inner(data, workers=None):\n"
            '    """doc"""\n'
            "    return data\n"
            "def outer(data, workers=None):\n"
            '    """doc"""\n'
            "    return inner(data, workers=workers)\n"
        )
        assert "RPR011" not in ids_of(analyze_source(src))

    def test_accepts_value_derived_from_parameter(self):
        src = (
            "def inner(data, workers=None):\n"
            '    """doc"""\n'
            "    return data\n"
            "def outer(data, workers=None):\n"
            '    """doc"""\n'
            "    lanes = workers or 1\n"
            "    return inner(data, workers=lanes)\n"
        )
        assert "RPR011" not in ids_of(analyze_source(src))

    def test_accepts_explicit_none_and_unpacking(self):
        # workers=None defers to the library default; **kw may carry it.
        src = (
            "def inner(data, workers=None):\n"
            '    """doc"""\n'
            "    return data\n"
            "def outer(data, workers=None, **kw):\n"
            '    """doc"""\n'
            "    inner(data, workers=None)\n"
            "    return inner(data, **kw)\n"
        )
        assert "RPR011" not in ids_of(analyze_source(src))


class TestRPR012SeededRng:
    def test_flags_unseeded_default_rng(self):
        src = (
            "import numpy as np\n"
            "def draw():\n"
            '    """doc"""\n'
            "    return np.random.default_rng()\n"
        )
        assert "RPR012" in ids_of(analyze_source(src))

    def test_flags_legacy_global_api(self):
        src = (
            "import numpy as np\n"
            "def draw():\n"
            '    """doc"""\n'
            "    return np.random.rand(3)\n"
        )
        assert "RPR012" in ids_of(analyze_source(src))

    def test_accepts_seeded_generator(self):
        src = (
            "import numpy as np\n"
            "def draw(seed):\n"
            '    """doc"""\n'
            "    return np.random.default_rng(seed)\n"
        )
        assert "RPR012" not in ids_of(analyze_source(src))

    def test_flags_explicit_none_seed(self):
        src = (
            "import numpy as np\n"
            "def draw():\n"
            '    """doc"""\n'
            "    return np.random.default_rng(seed=None)\n"
        )
        assert "RPR012" in ids_of(analyze_source(src))

    def test_tests_and_benchmarks_are_exempt(self):
        src = (
            "import numpy as np\n"
            "def draw():\n"
            '    """doc"""\n'
            "    return np.random.default_rng()\n"
        )
        assert "RPR012" not in ids_of(
            analyze_source(src, path="tests/test_draw.py")
        )
        assert "RPR012" not in ids_of(
            analyze_source(src, path="benchmarks/bench_draw.py")
        )


class TestRPR013WorkerPurity:
    def test_flags_global_write(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "_COUNTER = 0\n"
            "def worker(task):\n"
            '    """doc"""\n'
            "    global _COUNTER\n"
            "    _COUNTER = _COUNTER + 1\n"
            "    return task\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(worker, tasks, workers=workers)\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR013"]
        assert found and "writes '_COUNTER'" in found[0].message

    def test_flags_mutation_of_free_container(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "_RESULTS = []\n"
            "def worker(task):\n"
            '    """doc"""\n'
            "    _RESULTS.append(task)\n"
            "    return task\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(worker, tasks, workers=workers)\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR013"]
        assert found and ".append()" in found[0].message

    def test_flags_environ_access(self):
        src = (
            "import os\n"
            "from repro.parallel import parallel_map\n"
            "def worker(task):\n"
            '    """doc"""\n'
            "    return os.environ.get('REPRO_WORKERS')\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(worker, tasks, workers=workers)\n"
        )
        found = [v for v in analyze_source(src) if v.rule_id == "RPR013"]
        assert found and "os.environ" in found[0].message

    def test_accepts_pure_worker(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def worker(task):\n"
            '    """doc"""\n'
            "    out = [task, task]\n"
            "    out.append(task)\n"
            "    return out\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(worker, tasks, workers=workers)\n"
        )
        assert "RPR013" not in ids_of(analyze_source(src))

    def test_module_function_call_is_not_mutation(self):
        # np.sort(x) is a pure module function, not an in-place .sort().
        src = (
            "import numpy as np\n"
            "from repro.parallel import parallel_map\n"
            "def worker(task):\n"
            '    """doc"""\n'
            "    return np.sort(task)\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(worker, tasks, workers=workers)\n"
        )
        assert "RPR013" not in ids_of(analyze_source(src))


class TestRPR015SpanDiscipline:
    CORE = "src/repro/core/fake.py"

    def test_flags_unwrapped_dispatch(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(len, tasks, workers=workers)\n"
        )
        found = [
            v
            for v in analyze_source(src, path=self.CORE)
            if v.rule_id == "RPR015"
        ]
        assert found and "outside any obs.span" in found[0].message

    def test_span_wrapped_dispatch_is_clean(self):
        src = (
            "from repro import obs\n"
            "from repro.parallel import parallel_map\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            '    with obs.span("run"):\n'
            "        return parallel_map(len, tasks, workers=workers)\n"
        )
        assert "RPR015" not in ids_of(analyze_source(src, path=self.CORE))

    def test_only_core_modules_are_covered(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(len, tasks, workers=workers)\n"
        )
        assert "RPR015" not in ids_of(analyze_source(src))

    def test_pragma_is_the_escape_hatch(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def run(tasks, workers=None):\n"
            '    """doc"""\n'
            "    return parallel_map(len, tasks, workers=workers)"
            "  # reprolint: disable=RPR015\n"
        )
        assert "RPR015" not in ids_of(analyze_source(src, path=self.CORE))


class TestParseErrors:
    def test_syntax_error_becomes_rpr000(self):
        found = analyze_source("def broken(:\n")
        assert ids_of(found) == {"RPR000"}


# ---------------------------------------------------------------------------
# Pragmas, baseline, config, CLI.
# ---------------------------------------------------------------------------


class TestPragmas:
    SRC = (
        "def f(x):\n"
        '    """doc"""\n'
        "    assert x  # reprolint: disable=RPR003\n"
        "    assert x\n"
    )

    def test_pragma_silences_only_its_line(self):
        found = [v for v in analyze_source(self.SRC) if v.rule_id == "RPR003"]
        assert [v.line for v in found] == [4]

    def test_disable_all_pragma(self):
        src = "def f():\n    return 1  # reprolint: disable=all\n"
        # RPR007 anchors on the def line, not the pragma line -> still fires.
        assert "RPR007" in ids_of(analyze_source(src))
        src = "def f():  # reprolint: disable=all\n    return 1\n"
        assert analyze_source(src) == []

    def test_respect_pragmas_false_returns_everything(self):
        found = analyze_source(self.SRC, respect_pragmas=False)
        assert len([v for v in found if v.rule_id == "RPR003"]) == 2

    def test_comma_separated_codes_parse(self):
        from repro.analysis.context import parse_pragmas

        pragmas = parse_pragmas(["x = 1  # reprolint: disable=RPR003, RPR007"])
        assert pragmas[1] == frozenset({"RPR003", "RPR007"})

    def test_comma_separated_codes_suppress_both_rules(self):
        src = (
            "def f(points):\n"
            '    """doc"""\n'
            "    assert points[:, 0]  # reprolint: disable=RPR003,RPR001\n"
        )
        found = analyze_source(src)
        assert "RPR003" not in ids_of(found)
        assert "RPR001" not in ids_of(found)

    def test_junk_tokens_are_ignored_not_misparsed(self):
        from repro.analysis.context import parse_pragmas

        pragmas = parse_pragmas(
            ["x = 1  # reprolint: disable=RPR003,see-issue-12"]
        )
        assert pragmas[1] == frozenset({"RPR003"})

    def test_stacked_pragmas_union(self):
        from repro.analysis.context import parse_pragmas

        pragmas = parse_pragmas(
            [
                "x = 1  # reprolint: disable=RPR003"
                "  # reprolint: disable=RPR010"
            ]
        )
        assert pragmas[1] == frozenset({"RPR003", "RPR010"})


class TestBaseline:
    def test_round_trip_suppresses_then_reports_unused(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(x):\n"
            '    """doc"""\n'
            "    assert x\n",
            encoding="utf-8",
        )
        first = analyze_paths([target], root=tmp_path)
        assert ids_of(first.violations) == {"RPR003"}

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.violations)
        baseline = load_baseline(baseline_path)
        assert len(baseline) == 1

        second = analyze_paths([target], root=tmp_path, baseline=baseline)
        assert second.ok
        assert ids_of(second.baselined) == {"RPR003"}
        assert second.unused_baseline == []

        # Fix the file: the entry is now unused and surfaced as such.
        target.write_text("def f(x):\n    \"\"\"doc\"\"\"\n    return x\n", encoding="utf-8")
        third = analyze_paths([target], root=tmp_path, baseline=load_baseline(baseline_path))
        assert third.ok
        assert [e.rule for e in third.unused_baseline] == ["RPR003"]

    def test_empty_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {"path": "m.py", "rule": "RPR003", "symbol": "f", "justification": "  "}
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(AnalysisError, match="justification"):
            load_baseline(path)

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_baseline(path)

    def test_duplicate_entries_rejected(self):
        entry = {"path": "m.py", "rule": "RPR003", "symbol": "f", "justification": "x"}
        from repro.analysis import BaselineEntry

        with pytest.raises(AnalysisError, match="duplicate"):
            Baseline([BaselineEntry(**entry), BaselineEntry(**entry)])


class TestRegistry:
    def test_eight_domain_rules_registered(self):
        expected = {f"RPR00{i}" for i in range(1, 9)}
        assert expected <= set(rule_ids())

    def test_project_rules_registered(self):
        expected = {"RPR011", "RPR012", "RPR013", "RPR015"}
        assert expected <= set(rule_ids())
        assert "RPR014" not in rule_ids()  # retired, never reused

    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            get_rule("RPR999")


class TestCli:
    def _write_project(self, tmp_path, body):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\n", encoding="utf-8")
        target = tmp_path / "mod.py"
        target.write_text(body, encoding="utf-8")
        return target

    def test_exit_codes(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n"
        )
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out

        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    \"\"\"doc\"\"\"\n    return x\n", encoding="utf-8")
        assert main([str(clean)]) == 0

    def test_json_format(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n"
        )
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["active"] == 1
        assert payload["violations"][0]["rule"] == "RPR003"

    def test_select_and_disable(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    assert x\n"
        )
        assert main([str(target), "--select", "RPR007"]) == 1
        assert main([str(target), "--disable", "RPR003,RPR007"]) == 0
        capsys.readouterr()

    def test_write_baseline_then_clean_run(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n"
        )
        baseline = tmp_path / "bl.json"
        assert main([str(target), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert baseline.exists()
        assert main([str(target), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"RPR00{i}" in out

    def test_sarif_format(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n"
        )
        assert main([str(target), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert any(
            r["ruleId"] == "RPR003" and r["level"] == "error"
            for r in run["results"]
        )

    def test_prune_baseline_drops_stale_entries(self, tmp_path, capsys):
        target = self._write_project(
            tmp_path, "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n"
        )
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert main(args + ["--write-baseline"]) == 0
        # Entry is live: pruning is a no-op and the run stays green.
        assert main(args + ["--prune-baseline"]) == 0
        # Fix the file: the entry goes stale, pruning removes it and
        # fails the run so CI forces the shrunken baseline to land.
        target.write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    return x\n", encoding="utf-8"
        )
        assert main(args + ["--prune-baseline"]) == 1
        out = capsys.readouterr().out
        assert "pruned" in out
        assert json.loads(baseline.read_text(encoding="utf-8"))["entries"] == []
        assert main(args + ["--prune-baseline"]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        target = self._write_project(tmp_path, "x = 1\n")
        assert main([str(target), "--select", "RPR999"]) == 2
        assert "reprolint: error" in capsys.readouterr().err


class TestSelfLint:
    def test_repo_source_tree_is_clean(self):
        """The library (including the linter itself) passes its own lint."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        src = root / "src" / "repro"
        if not src.is_dir():
            pytest.skip("source tree not available")
        baseline_path = root / ".reprolint-baseline.json"
        baseline = load_baseline(baseline_path) if baseline_path.exists() else None
        result = analyze_paths(
            [src], root=root, baseline=baseline
        )
        assert result.ok, "\n".join(v.render() for v in result.violations)
        assert result.unused_baseline == []
