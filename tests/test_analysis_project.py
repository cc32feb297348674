"""Unit tests for reprolint's project index and engine plumbing.

Covers the :class:`ProjectIndex` (module naming, import resolution,
re-export chasing, cycle detection), the def-use
:class:`FunctionSummary`, the single parse per file and the SARIF
reporter.
"""

import ast
import json

import pytest

from repro.analysis import ProjectIndex, analyze_paths, render_sarif
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow import FunctionSummary
from repro.analysis.project import FunctionInfo, module_name_for_path


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


class TestSinglePass:
    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
        (tmp_path / "pkg").mkdir()
        files = {
            "pkg/__init__.py": "from .b import g\n\n__all__ = [\"g\"]\n",
            "pkg/a.py": "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n",
            "pkg/b.py": (
                "from .a import f\n\n\n"
                "def g(x):\n    \"\"\"doc\"\"\"\n    return f(x)\n"
            ),
        }
        for relpath, source in files.items():
            (tmp_path / relpath).write_text(source, encoding="utf-8")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = analyze_paths([tmp_path / "pkg"], root=tmp_path)
        assert result.files_checked == len(files)
        assert {v.rule_id for v in result.violations} == {"RPR003"}
        assert sorted(parsed) == sorted(files)


class TestSarifReport:
    def test_sarif_is_structurally_valid(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\n", encoding="utf-8"
        )
        (tmp_path / "m.py").write_text(
            "def f(x):\n    \"\"\"doc\"\"\"\n    assert x\n", encoding="utf-8"
        )
        result = analyze_paths([tmp_path], root=tmp_path)
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
