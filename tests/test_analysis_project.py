"""Unit tests for reprolint's phase-1 substrate and engine plumbing.

Covers the :class:`ProjectIndex` (module naming, import resolution,
re-export chasing, cycle detection), the def-use
:class:`FunctionSummary`, the on-disk :class:`AnalysisCache`, the SARIF
reporter and the ``--changed-only`` git integration.
"""

import ast
import importlib
import json
import subprocess

import pytest

from repro.analysis import (
    AnalysisCache,
    ProjectIndex,
    analyze_paths,
    render_sarif,
)
from repro.analysis.cache import (
    CACHE_VERSION,
    content_hash,
    project_digest,
    ruleset_digest,
)
from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow import FunctionSummary
from repro.analysis.project import (
    FunctionInfo,
    deprecations,
    module_name_for_path,
)
from repro.analysis.registry import all_rules
from repro.analysis.violations import Violation


def build_index(files):
    """ProjectIndex over {relpath: source} fixture dicts."""
    return ProjectIndex.build(
        {path: ModuleContext(path, source) for path, source in files.items()}
    )


def summarize(source, aliases=None, module_roots=None):
    """FunctionSummary of the first def in ``source``."""
    tree = ast.parse(source)
    func = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    )
    return FunctionSummary(func, aliases=aliases, module_roots=module_roots)


def _resolve(qualname: str):
    """Import the longest module prefix of ``qualname``, then getattr the rest."""
    parts = qualname.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(qualname)


class TestDeprecationTable:
    def test_deprecated_functions_are_deleted(self):
        """RPR014 entries outlive their symbols: none may still import."""
        entries = [d for d in deprecations() if d.kind == "function"]
        assert entries
        for entry in entries:
            with pytest.raises((ImportError, AttributeError)):
                _resolve(entry.qualname)


class TestModuleNaming:
    def test_src_prefix_and_extension_are_stripped(self):
        assert module_name_for_path("src/repro/core/stkdv.py") == "repro.core.stkdv"

    def test_package_init_maps_to_package(self):
        assert module_name_for_path("src/repro/core/__init__.py") == "repro.core"

    def test_non_importable_paths_are_sanitised(self):
        name = module_name_for_path("<memory>")
        assert name.isidentifier()


class TestProjectIndex:
    def test_resolves_top_level_function(self):
        index = build_index(
            {"src/repro/a.py": 'def f():\n    """doc"""\n    return 1\n'}
        )
        target = index.resolve("repro.a.f")
        assert isinstance(target, FunctionInfo)
        assert target.name == "f"

    def test_aliased_import_resolution(self):
        index = build_index(
            {
                "src/repro/a.py": 'def f():\n    """doc"""\n    return 1\n',
                "src/repro/b.py": (
                    "from repro.a import f as g\n"
                    "def use():\n"
                    '    """doc"""\n'
                    "    return g()\n"
                ),
            }
        )
        module = index.module_for_path("src/repro/b.py")
        call = next(
            node
            for node in module.ctx.walk()
            if isinstance(node, ast.Call)
        )
        assert index.dotted_for(module, call.func) == "repro.a.f"
        callee = index.resolve_call(module, call)
        assert isinstance(callee, FunctionInfo) and callee.name == "f"

    def test_relative_import_resolution(self):
        index = build_index(
            {
                "src/repro/pkg/__init__.py": '"""doc"""\n',
                "src/repro/pkg/impl.py": (
                    'def thing():\n    """doc"""\n    return 1\n'
                ),
                "src/repro/pkg/use.py": (
                    "from .impl import thing\n"
                    "def use():\n"
                    '    """doc"""\n'
                    "    return thing()\n"
                ),
            }
        )
        module = index.module_for_path("src/repro/pkg/use.py")
        call = next(
            node for node in module.ctx.walk() if isinstance(node, ast.Call)
        )
        callee = index.resolve_call(module, call)
        assert isinstance(callee, FunctionInfo)
        assert callee.dotted == "repro.pkg.impl.thing"

    def test_reexport_chasing(self):
        index = build_index(
            {
                "src/repro/pkg/__init__.py": (
                    "from .impl import thing\n__all__ = ['thing']\n"
                ),
                "src/repro/pkg/impl.py": (
                    'def thing():\n    """doc"""\n    return 1\n'
                ),
                "src/repro/other.py": (
                    "from repro.pkg import thing\n"
                    "def use():\n"
                    '    """doc"""\n'
                    "    return thing()\n"
                ),
            }
        )
        target = index.resolve("repro.pkg.thing")
        assert isinstance(target, FunctionInfo) and target.name == "thing"
        module = index.module_for_path("src/repro/other.py")
        call = next(
            node for node in module.ctx.walk() if isinstance(node, ast.Call)
        )
        assert index.resolve_call(module, call) is not None

    def test_import_cycle_detection(self):
        index = build_index(
            {
                "src/repro/x.py": "from repro.y import g\n",
                "src/repro/y.py": "from repro.x import f\n",
                "src/repro/z.py": "from repro.x import f\n",
            }
        )
        cycles = index.import_cycles()
        assert cycles == [["repro.x", "repro.y"]]

    def test_acyclic_graph_has_no_cycles(self):
        index = build_index(
            {
                "src/repro/a.py": 'def f():\n    """doc"""\n    return 1\n',
                "src/repro/b.py": "from repro.a import f\n",
            }
        )
        assert index.import_cycles() == []


class TestFunctionSummary:
    def test_derived_closure_is_transitive(self):
        summary = summarize(
            "def f(workers, data):\n"
            "    lanes = workers or 1\n"
            "    bands = lanes * 4\n"
            "    other = len(data)\n"
            "    return bands + other\n"
        )
        derived = summary.derived("workers")
        assert {"workers", "lanes", "bands"} <= derived
        assert "other" not in derived

    def test_global_store_is_a_free_effect(self):
        summary = summarize(
            "def f(x):\n"
            "    global state\n"
            "    state = x\n"
        )
        assert [(e.name, e.kind) for e in summary.free_effects] == [
            ("state", "store")
        ]

    def test_mutation_of_free_name_is_flagged(self):
        summary = summarize("def f(x):\n    results.append(x)\n")
        assert [(e.name, e.kind, e.via) for e in summary.free_effects] == [
            ("results", "mutate", "append")
        ]

    def test_module_alias_call_is_not_a_mutation(self):
        summary = summarize(
            "def f(x):\n    return np.sort(x)\n",
            aliases={"np": "numpy"},
            module_roots={"np"},
        )
        assert summary.free_effects == []

    def test_local_mutation_is_not_flagged(self):
        summary = summarize(
            "def f(x):\n    out = []\n    out.append(x)\n    return out\n"
        )
        assert summary.free_effects == []

    def test_environ_read_and_write_effects(self):
        summary = summarize(
            "def f():\n"
            "    val = os.environ.get('K')\n"
            "    os.environ['K'] = 'v'\n"
            "    return val\n",
            aliases={"os": "os"},
        )
        assert len(summary.env_reads()) == 1
        assert len(summary.env_writes()) == 1


class TestAnalysisCache:
    def _violation(self):
        return Violation(
            rule_id="RPR003",
            path="m.py",
            line=3,
            col=4,
            message="no asserts",
            symbol="f",
        )

    def test_file_round_trip_and_sha_miss(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", "digest-a")
        cache.put_file("m.py", "sha1", [self._violation()])
        cache.save()

        reopened = AnalysisCache(tmp_path / "c.json", "digest-a")
        hit = reopened.get_file("m.py", "sha1")
        assert hit is not None and hit[0].rule_id == "RPR003"
        assert reopened.get_file("m.py", "sha2") is None

    def test_ruleset_change_invalidates_everything(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json", "digest-a")
        cache.put_file("m.py", "sha1", [self._violation()])
        cache.put_project("proj-digest", [])
        cache.save()

        other = AnalysisCache(tmp_path / "c.json", "digest-b")
        assert other.get_file("m.py", "sha1") is None
        assert other.get_project("proj-digest") is None

    def test_corrupt_cache_is_a_cold_start(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        cache = AnalysisCache(path, "digest-a")
        assert cache.get_file("m.py", "sha1") is None

    def test_ruleset_digest_tracks_rule_versions(self):
        rules = all_rules()
        base = ruleset_digest(rules)
        assert base == ruleset_digest(list(reversed(rules)))
        assert base != ruleset_digest(rules[:-1])

    def test_project_digest_is_order_insensitive(self):
        ruleset = "r"
        pairs = [("a.py", content_hash("a")), ("b.py", content_hash("b"))]
        assert project_digest(pairs, ruleset) == project_digest(
            list(reversed(pairs)), ruleset
        )
        assert project_digest(pairs, ruleset) != project_digest(
            pairs[:1], ruleset
        )

    def test_cache_version_mismatch_starts_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "version": CACHE_VERSION + 1,
                    "ruleset": "digest-a",
                    "files": {"m.py": {"sha": "sha1", "findings": []}},
                    "project": None,
                }
            ),
            encoding="utf-8",
        )
        cache = AnalysisCache(path, "digest-a")
        assert cache.get_file("m.py", "sha1") is None


class TestEngineCaching:
    def _project(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\n", encoding="utf-8"
        )
        (tmp_path / "a.py").write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        (tmp_path / "b.py").write_text(
            "def g(x):\n    \"\"\"doc\"\"\"\n    return x\n", encoding="utf-8"
        )
        return LintConfig(root=tmp_path)

    def test_warm_run_hits_cache_and_matches_cold(self, tmp_path):
        config = self._project(tmp_path)
        cache = tmp_path / "cache.json"
        cold = analyze_paths([tmp_path], config=config, cache_path=cache)
        warm = analyze_paths([tmp_path], config=config, cache_path=cache)

        assert cold.cache_hits == 0 and not cold.project_cache_hit
        assert warm.cache_hits == warm.files_checked
        assert warm.project_cache_hit
        assert [v.fingerprint() for v in warm.violations] == [
            v.fingerprint() for v in cold.violations
        ]

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        config = self._project(tmp_path)
        cache = tmp_path / "cache.json"
        analyze_paths([tmp_path], config=config, cache_path=cache)
        (tmp_path / "b.py").write_text(
            "def g(x):\n    \"\"\"doc\"\"\"\n    return x + 1\n",
            encoding="utf-8",
        )
        third = analyze_paths([tmp_path], config=config, cache_path=cache)
        assert third.cache_hits == third.files_checked - 1
        assert not third.project_cache_hit


class TestSarifReport:
    def test_sarif_is_structurally_valid(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\n", encoding="utf-8"
        )
        (tmp_path / "m.py").write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        config = LintConfig(root=tmp_path)
        result = analyze_paths([tmp_path], config=config)
        doc = json.loads(render_sarif(result))

        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rules = driver["rules"]
        assert all({"id", "name", "shortDescription"} <= set(r) for r in rules)
        for res in run["results"]:
            assert res["ruleId"].startswith("RPR")
            if "ruleIndex" in res:
                assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            location = res["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert "reprolintFingerprint/v1" in res["partialFingerprints"]
        assert run["invocations"][0]["exitCode"] == 1


class TestChangedOnly:
    def _git(self, cwd, *args):
        return subprocess.run(
            [
                "git",
                "-c",
                "user.email=reprolint@example.invalid",
                "-c",
                "user.name=reprolint",
                *args,
            ],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )

    def test_outside_git_falls_back_to_full_report(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        config = LintConfig(root=tmp_path)
        result = analyze_paths([tmp_path], config=config, changed_only=True)
        assert not result.changed_only
        assert len(result.violations) == 1

    def test_changed_only_reports_changed_files(self, tmp_path):
        try:
            self._git(tmp_path, "init", "-q")
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git unavailable")
        committed = tmp_path / "old.py"
        committed.write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        self._git(tmp_path, "add", "old.py")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        fresh = tmp_path / "new.py"
        fresh.write_text(
            "def g(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        config = LintConfig(root=tmp_path)
        result = analyze_paths([tmp_path], config=config, changed_only=True)
        assert result.changed_only
        assert {v.path for v in result.violations} == {"new.py"}
