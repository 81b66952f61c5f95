"""Tests for ``repro.analysis`` — the AST-based invariant linter.

Per-rule fixture snippets (must-flag / must-pass pairs), suppression and
baseline round-trips, the JSON output schema, CLI exit codes, the cross-file
pass, and the meta-test asserting the committed tree itself lints clean.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import List

import pytest

from repro.analysis import (
    Baseline,
    BaseRule,
    Finding,
    SuppressionIndex,
    collect_files,
    default_rules,
    lint_files,
    rule_table,
    run_lint,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import PARSE_RULE_ID, FileContext

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(source: str, tmp_path: Path, name: str = "snippet.py"):
    """Write ``source`` to a scratch file and lint it with the full battery."""
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    report = lint_files([path], root=tmp_path)
    return report


def rule_ids(report) -> List[str]:
    return [finding.rule_id for finding in report.findings]


# --------------------------------------------------------------------------- #
# per-rule fixtures: must-flag and must-pass pairs
# --------------------------------------------------------------------------- #
class TestDET001:
    def test_flags_unseeded_default_rng(self, tmp_path):
        report = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n", tmp_path)
        assert rule_ids(report) == ["DET001"]
        assert "unseeded" in report.findings[0].message

    def test_passes_seeded_default_rng(self, tmp_path):
        report = lint_source(
            "import numpy as np\nrng = np.random.default_rng(7)\n", tmp_path)
        assert report.clean

    def test_flags_legacy_module_level_numpy(self, tmp_path):
        report = lint_source(
            "import numpy as np\nx = np.random.rand(3)\nnp.random.seed(0)\n",
            tmp_path)
        assert rule_ids(report) == ["DET001", "DET001"]

    def test_flags_stdlib_random_module_calls(self, tmp_path):
        report = lint_source(
            "import random\nvalue = random.random()\n", tmp_path)
        assert rule_ids(report) == ["DET001"]

    def test_passes_seeded_stdlib_random_instance(self, tmp_path):
        report = lint_source(
            "import random\nstream = random.Random(13)\nvalue = stream.random()\n",
            tmp_path)
        assert report.clean

    def test_respects_import_alias(self, tmp_path):
        report = lint_source(
            "import numpy\nrng = numpy.random.default_rng()\n", tmp_path)
        assert rule_ids(report) == ["DET001"]

    def test_generator_method_calls_pass(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "def draw(rng: np.random.Generator):\n"
            "    return rng.random(4)\n", tmp_path)
        assert report.clean


class TestCLK001:
    def test_flags_wall_clock_calls(self, tmp_path):
        report = lint_source(
            "import time\nfrom datetime import datetime\n"
            "a = time.time()\nb = time.perf_counter()\nc = datetime.now()\n",
            tmp_path)
        assert rule_ids(report) == ["CLK001", "CLK001", "CLK001"]

    def test_allowlisted_paths_pass(self, tmp_path):
        timing = tmp_path / "repro" / "eval" / "timing.py"
        timing.parent.mkdir(parents=True)
        timing.write_text("import time\nstart = time.perf_counter()\n",
                          encoding="utf-8")
        report = lint_files([timing], root=tmp_path)
        assert report.clean

    def test_injected_clock_passes(self, tmp_path):
        report = lint_source(
            "import time\n"
            "def measure(timer=time.perf_counter):\n"
            "    return timer()\n", tmp_path)
        assert report.clean


class TestNAN001:
    def test_flags_zero_return_in_rate_function(self, tmp_path):
        report = lint_source(
            "def cache_hit_rate(hits, lookups):\n"
            "    if not lookups:\n"
            "        return 0.0\n"
            "    return hits / lookups\n", tmp_path)
        assert rule_ids(report) == ["NAN001"]

    def test_flags_by_docstring(self, tmp_path):
        report = lint_source(
            "def speed(n, elapsed):\n"
            "    \"\"\"Requests per second over the window.\"\"\"\n"
            "    if elapsed == 0:\n"
            "        return 0\n"
            "    return n / elapsed\n", tmp_path)
        assert rule_ids(report) == ["NAN001"]

    def test_nan_return_passes(self, tmp_path):
        report = lint_source(
            "def cache_hit_rate(hits, lookups):\n"
            "    if not lookups:\n"
            "        return float('nan')\n"
            "    return hits / lookups\n", tmp_path)
        assert report.clean

    def test_non_measurement_function_passes(self, tmp_path):
        report = lint_source(
            "def count_items(items):\n"
            "    if items is None:\n"
            "        return 0\n"
            "    return len(items)\n", tmp_path)
        assert report.clean

    def test_return_false_is_not_a_zero(self, tmp_path):
        report = lint_source(
            "def rate_limited(state):\n"
            "    \"\"\"Whether the rate limiter is engaged.\"\"\"\n"
            "    if state is None:\n"
            "        return False\n"
            "    return state.engaged\n", tmp_path)
        assert report.clean

    def test_nested_function_not_attributed_to_parent(self, tmp_path):
        report = lint_source(
            "def average_latency(samples):\n"
            "    def sentinel():\n"
            "        return 0\n"
            "    return sum(samples) / len(samples)\n", tmp_path)
        assert report.clean


class TestMUT001:
    def test_flags_mutable_defaults(self, tmp_path):
        report = lint_source(
            "def collect(into=[]):\n    return into\n"
            "def index(table={}):\n    return table\n", tmp_path)
        assert rule_ids(report) == ["MUT001", "MUT001"]

    def test_none_default_passes(self, tmp_path):
        report = lint_source(
            "def collect(into=None):\n"
            "    return [] if into is None else into\n", tmp_path)
        assert report.clean


class TestEXC001:
    def test_flags_bare_and_overbroad_except(self, tmp_path):
        report = lint_source(
            "def load(path):\n"
            "    try:\n"
            "        return open(path)\n"
            "    except:\n"
            "        return None\n"
            "def parse(text):\n"
            "    try:\n"
            "        return int(text)\n"
            "    except Exception:\n"
            "        return None\n", tmp_path)
        assert rule_ids(report) == ["EXC001", "EXC001"]

    def test_reraising_broad_handler_passes(self, tmp_path):
        report = lint_source(
            "def load(path):\n"
            "    try:\n"
            "        return open(path)\n"
            "    except Exception as error:\n"
            "        raise RuntimeError(path) from error\n", tmp_path)
        assert report.clean

    def test_specific_exception_passes(self, tmp_path):
        report = lint_source(
            "def parse(text):\n"
            "    try:\n"
            "        return int(text)\n"
            "    except ValueError:\n"
            "        return None\n", tmp_path)
        assert report.clean


class TestSIG001:
    def test_flags_set_iteration_in_signature_function(self, tmp_path):
        report = lint_source(
            "def signature(records):\n"
            "    seen = set(records)\n"
            "    digest = []\n"
            "    for record in seen:\n"
            "        digest.append(record)\n"
            "    return tuple(digest)\n", tmp_path)
        assert rule_ids(report) == ["SIG001"]

    def test_flags_set_comprehension_source(self, tmp_path):
        report = lint_source(
            "def fingerprint(items):\n"
            "    return [item for item in {i.key for i in items}]\n", tmp_path)
        assert rule_ids(report) == ["SIG001"]

    def test_sorted_set_passes(self, tmp_path):
        report = lint_source(
            "def signature(records):\n"
            "    seen = set(records)\n"
            "    return tuple(sorted(seen))\n", tmp_path)
        assert report.clean

    def test_other_functions_may_iterate_sets(self, tmp_path):
        report = lint_source(
            "def distinct_users(records):\n"
            "    total = 0\n"
            "    for user in set(records):\n"
            "        total += 1\n"
            "    return total\n", tmp_path)
        assert report.clean


class TestIMP001:
    def test_flags_unused_imports(self, tmp_path):
        report = lint_source(
            "import json\n"
            "import os.path\n"
            "from typing import Dict, List\n"
            "def f() -> Dict[str, int]:\n"
            "    return {}\n", tmp_path)
        assert rule_ids(report) == ["IMP001", "IMP001", "IMP001"]
        assert ["`json`" in f.message for f in report.findings] == [True, False, False]
        assert "`os.path`" in report.findings[1].message
        assert "`List`" in report.findings[2].message

    def test_reads_of_every_kind_count_as_use(self, tmp_path):
        report = lint_source(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "from .values import exported, kept as kept\n"
            "if TYPE_CHECKING:\n"
            "    from .graph import Graph\n"
            "__all__ = ['exported']\n"
            "def f(graph: 'Graph') -> Optional[int]:\n"
            "    return np.size(os.path.sep)\n", tmp_path)
        assert report.clean

    def test_package_facades_are_exempt(self, tmp_path):
        package = tmp_path / "package"
        package.mkdir()
        report = lint_source("from .module import name\n", package, "__init__.py")
        assert report.clean

    def test_ruff_noqa_f401_is_honoured(self, tmp_path):
        assert lint_source("import json  # noqa: F401\n", tmp_path).clean
        assert rule_ids(lint_source("import json  # noqa: E731\n", tmp_path)) == ["IMP001"]

    def test_flags_the_unused_imports_once_found_in_the_tree(self, tmp_path):
        # ``field`` in cluster/breaker.py; ``json`` and ``EntityType`` in
        # tests/test_faults.py; ``json`` in tests/test_pipeline.py.
        breaker = lint_source(
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Breaker:\n"
            "    threshold: int = 3\n", tmp_path, "breaker.py")
        faults = lint_source(
            "import dataclasses\n"
            "import json\n"
            "from repro.kg.entities import EntityType\n"
            "def test_replace():\n"
            "    assert dataclasses.replace\n", tmp_path, "test_faults.py")
        pipeline = lint_source(
            "import inspect\n"
            "import json\n"
            "def test_signature():\n"
            "    assert inspect.signature\n", tmp_path, "test_pipeline.py")
        assert [(f.line, f.rule_id) for f in breaker.findings] == [(1, "IMP001")]
        assert [(f.line, f.rule_id) for f in faults.findings] == [(2, "IMP001"),
                                                                  (3, "IMP001")]
        assert [(f.line, f.rule_id) for f in pipeline.findings] == [(2, "IMP001")]


class TestIMP002:
    def test_flags_the_unimported_tuple_once_found_in_the_tree(self, tmp_path):
        # cluster/service.py annotated with ``Tuple`` it never imported;
        # postponed annotations meant no test ever evaluated them.
        report = lint_source(
            "from __future__ import annotations\n"
            "from typing import Dict\n"
            "class Service:\n"
            "    def __init__(self) -> None:\n"
            "        self._shadow: Dict[Tuple[int, int], str] = {}\n"
            "    def key(self) -> Tuple[int, int]:\n"
            "        return (0, 0)\n", tmp_path)
        assert [(f.line, f.rule_id) for f in report.findings] == [(5, "IMP002"),
                                                                  (6, "IMP002")]
        assert "`Tuple`" in report.findings[0].message

    def test_flags_string_and_argument_annotations(self, tmp_path):
        report = lint_source(
            "def f(values: 'List[int]', *rest: Any) -> None:\n"
            "    return None\n", tmp_path)
        assert sorted(rule_ids(report)) == ["IMP002", "IMP002"]

    def test_imported_or_defined_names_pass(self, tmp_path):
        report = lint_source(
            "from typing import List\n"
            "import typing\n"
            "class Any:\n"
            "    pass\n"
            "def f(values: List[int], other: Any) -> typing.Tuple[int]:\n"
            "    return (len(values),)\n", tmp_path)
        assert report.clean

    def test_only_annotations_are_checked(self, tmp_path):
        assert lint_source("Mapping = dict\nVALUE = Mapping()\n", tmp_path).clean
        assert lint_source("def f():\n    return List\n", tmp_path).clean

    def test_ruff_noqa_f821_is_honoured(self, tmp_path):
        assert lint_source("def f() -> 'Tuple':  # noqa: F821\n    pass\n",
                           tmp_path).clean


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[DET001] fixture\n",
            tmp_path)
        assert report.clean
        assert report.suppressed_count == 1

    def test_preceding_comment_line_suppression(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "# repro: ignore[DET001] fixture randomness is fine here\n"
            "rng = np.random.default_rng()\n", tmp_path)
        assert report.clean
        assert report.suppressed_count == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[NAN001] wrong rule\n",
            tmp_path)
        assert rule_ids(report) == ["DET001"]

    def test_wildcard_suppresses_everything(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[*] scratch file\n",
            tmp_path)
        assert report.clean

    def test_multiple_rules_in_one_comment(self):
        index = SuppressionIndex.from_source(
            ["x = 1  # repro: ignore[DET001, NAN001] both"])
        det = Finding(path="f.py", line=1, column=1, rule_id="DET001", message="")
        nan = Finding(path="f.py", line=1, column=1, rule_id="NAN001", message="")
        clk = Finding(path="f.py", line=1, column=1, rule_id="CLK001", message="")
        assert index.suppresses(det) and index.suppresses(nan)
        assert not index.suppresses(clk)

    def test_reasonless_exc001_suppression_does_not_suppress(self, tmp_path):
        report = lint_source(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # repro: ignore[EXC001]\n"
            "        return None\n", tmp_path)
        assert rule_ids(report) == ["EXC001"]

    def test_reasoned_exc001_suppression_suppresses(self, tmp_path):
        report = lint_source(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # repro: ignore[EXC001] probes may die\n"
            "        return None\n", tmp_path)
        assert report.clean
        assert report.suppressed_count == 1

    def test_reasonless_wildcard_does_not_cover_exc001(self, tmp_path):
        report = lint_source(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # repro: ignore[*]\n"
            "        return None\n", tmp_path)
        assert rule_ids(report) == ["EXC001"]

    def test_reasonless_suppression_still_covers_other_rules(self, tmp_path):
        report = lint_source(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: ignore[DET001]\n",
            tmp_path)
        assert report.clean


# --------------------------------------------------------------------------- #
# baseline round-trip
# --------------------------------------------------------------------------- #
class TestBaseline:
    VIOLATING = "import numpy as np\nrng = np.random.default_rng()\n"

    def test_round_trip_accepts_then_catches_new(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text(self.VIOLATING, encoding="utf-8")
        first = lint_files([target], root=tmp_path)
        assert len(first.findings) == 1

        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(first.findings).save(baseline_path)
        reloaded = Baseline.load(baseline_path)
        assert len(reloaded) == 1

        second = lint_files([target], root=tmp_path, baseline=reloaded)
        assert second.clean
        assert len(second.baselined) == 1

        # A NEW violation on a different line is not grandfathered.
        target.write_text(self.VIOLATING + "other = np.random.rand(2)\n",
                          encoding="utf-8")
        third = lint_files([target], root=tmp_path, baseline=reloaded)
        assert len(third.findings) == 1
        assert "np.random.rand" in third.findings[0].source_line

    def test_edited_line_invalidates_entry(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text(self.VIOLATING, encoding="utf-8")
        baseline = Baseline.from_findings(
            lint_files([target], root=tmp_path).findings)
        target.write_text(
            "import numpy as np\nrng = np.random.default_rng()  # moved\n",
            encoding="utf-8")
        report = lint_files([target], root=tmp_path, baseline=baseline)
        assert len(report.findings) == 1  # text changed, entry no longer matches

    def test_multiset_semantics(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text(
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n", encoding="utf-8")
        findings = lint_files([target], root=tmp_path).findings
        assert len(findings) == 2
        one_entry = Baseline.from_findings(findings[:1])
        report = lint_files([target], root=tmp_path, baseline=one_entry)
        assert len(report.findings) == 1  # one accepted, one still reported

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}), encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(bad)


# --------------------------------------------------------------------------- #
# engine mechanics: parse errors, discovery, cross-file pass
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        report = lint_source("def broken(:\n    pass\n", tmp_path)
        assert rule_ids(report) == [PARSE_RULE_ID]

    def test_collect_files_skips_pycache_and_dedupes(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n",
                                                                  encoding="utf-8")
        files = collect_files([tmp_path / "pkg", tmp_path / "pkg" / "a.py"])
        assert [f.name for f in files] == ["a.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([tmp_path / "nope"])

    def test_cross_file_pass_sees_all_files(self, tmp_path):
        class DuplicateClassRule(BaseRule):
            """Toy cross-file rule: the same class name in two modules."""

            rule_id = "XF001"
            description = "duplicate top-level class name across modules"

            def __init__(self):
                self.seen = {}
                self.duplicates = []

            def check_file(self, context):
                for node in ast.iter_child_nodes(context.tree):
                    if isinstance(node, ast.ClassDef):
                        if node.name in self.seen:
                            self.duplicates.append(
                                self.finding(context, node,
                                             f"class {node.name} also defined "
                                             f"in {self.seen[node.name]}"))
                        else:
                            self.seen[node.name] = context.path
                return []

            def finish(self):
                return self.duplicates

        (tmp_path / "a.py").write_text("class Thing:\n    pass\n", encoding="utf-8")
        (tmp_path / "b.py").write_text("class Thing:\n    pass\n", encoding="utf-8")
        report = lint_files(collect_files([tmp_path]), rules=[DuplicateClassRule()],
                            root=tmp_path)
        assert rule_ids(report) == ["XF001"]
        assert "a.py" in report.findings[0].message

    def test_rule_table_covers_battery(self):
        table = rule_table()
        assert set(table) == {"DET001", "CLK001", "NAN001", "MUT001",
                              "EXC001", "SIG001", "IMP001", "IMP002"}
        assert all(table.values())

    def test_fresh_rule_instances_per_run(self):
        first, second = default_rules(), default_rules()
        assert {type(r) for r in first} == {type(r) for r in second}
        assert all(a is not b for a, b in zip(first, second))


# --------------------------------------------------------------------------- #
# CLI: formats and exit codes
# --------------------------------------------------------------------------- #
class TestCli:
    def test_violation_exits_1_and_names_the_rule(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text("import numpy as np\nrng = np.random.default_rng()\n",
                           encoding="utf-8")
        assert lint_main([str(scratch)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "scratch.py" in out

    def test_clean_file_exits_0(self, tmp_path, capsys):
        scratch = tmp_path / "clean.py"
        scratch.write_text("VALUE = 1\n", encoding="utf-8")
        assert lint_main([str(scratch)]) == 0

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--format", "yaml"])
        assert excinfo.value.code == 2

    def test_json_output_schema(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text("import numpy as np\nrng = np.random.default_rng()\n",
                           encoding="utf-8")
        assert lint_main([str(scratch), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"files_checked", "findings", "baselined",
                                 "suppressed", "clean"}
        assert document["clean"] is False
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "column", "rule_id", "message",
                                "source_line"}
        assert finding["rule_id"] == "DET001"
        assert finding["line"] == 2

    def test_update_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scratch = tmp_path / "legacy.py"
        scratch.write_text("import numpy as np\nrng = np.random.default_rng()\n",
                           encoding="utf-8")
        baseline = tmp_path / "accepted.json"
        assert lint_main([str(scratch), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert baseline.exists()
        assert lint_main([str(scratch), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "CLK001", "NAN001", "MUT001", "EXC001", "SIG001"):
            assert rule_id in out

    def test_list_rules_names_the_import_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "IMP001" in out and "IMP002" in out


# --------------------------------------------------------------------------- #
# the meta-test: the committed tree is clean
# --------------------------------------------------------------------------- #
class TestCommittedTree:
    def test_src_lints_clean(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.clean, "\n".join(f.format_text() for f in report.findings)

    def test_tests_lint_clean(self):
        report = run_lint([REPO_ROOT / "tests"], root=REPO_ROOT)
        assert report.clean, "\n".join(f.format_text() for f in report.findings)

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
        assert len(baseline) == 0


# --------------------------------------------------------------------------- #
# FileContext plumbing the rules rely on
# --------------------------------------------------------------------------- #
class TestFileContext:
    def test_functions_are_qualified(self):
        source = ("class Outer:\n"
                  "    def method(self):\n"
                  "        def inner():\n"
                  "            pass\n")
        context = FileContext("f.py", source, ast.parse(source))
        names = [qualified for _, qualified in context.functions()]
        assert names == ["Outer.method", "Outer.method.inner"]

    def test_import_aliases_resolved(self):
        source = ("import numpy as np\n"
                  "from datetime import datetime as dt\n")
        context = FileContext("f.py", source, ast.parse(source))
        assert context.aliases["np"] == "numpy"
        assert context.aliases["dt"] == "datetime.datetime"
