"""Engine-level behavior: suppressions, reporters, collection."""

import json
import os

import pytest

from repro.staticcheck import (
    Finding,
    parse_module,
    render_json,
    render_text,
    run_check,
)
from repro.staticcheck.engine import all_rules, expand_paths, get_rule

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def fixture(name):
    return os.path.join(FIXTURES, name)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_named_and_blanket_suppressions_are_honored():
    result = run_check([fixture("suppressed.py")])
    assert result.findings == []
    assert result.exit_code == 0


def test_suppression_is_rule_specific():
    module = parse_module(
        "scratch.py",
        source=("import random\n"
                "x = random.random()  # staticcheck: ignore[DET-TIME]\n"))
    findings = list(get_rule("DET-RANDOM").check_module(module))
    assert len(findings) == 1
    # The named suppression targets a different rule, so it must not
    # swallow this finding.
    assert not module.suppressed(findings[0].line, "DET-RANDOM")
    assert module.suppressed(findings[0].line, "DET-TIME")


def test_multiple_ids_in_one_suppression():
    module = parse_module(
        "scratch.py",
        source="x = 1  # staticcheck: ignore[DET-RANDOM, NUM-FLOAT-EQ]\n")
    assert module.suppressed(1, "DET-RANDOM")
    assert module.suppressed(1, "NUM-FLOAT-EQ")
    assert not module.suppressed(1, "DET-TIME")


# ----------------------------------------------------------------------
# Module metadata
# ----------------------------------------------------------------------


def test_module_name_derived_from_repro_path():
    module = parse_module("src/repro/curves/curve.py", source="x = 1\n")
    assert module.module == "repro.curves.curve"
    assert module.package == "curves"


def test_package_init_maps_to_package_name():
    module = parse_module("src/repro/curves/__init__.py", source="")
    assert module.module == "repro.curves"
    assert module.package == "curves"


def test_module_override_comment_sets_scope():
    module = parse_module(
        "anywhere/else.py",
        source="# staticcheck: module=repro.core.example\n")
    assert module.module == "repro.core.example"
    assert module.package == "core"


def test_non_repro_file_has_no_package():
    module = parse_module("scripts/tool.py", source="x = 1\n")
    assert module.module is None
    assert module.package is None


# ----------------------------------------------------------------------
# Collection, the fixtures skip, error handling
# ----------------------------------------------------------------------

_BAD = "import random\nrandom.random()\n"


def test_directory_walk_skips_fixtures_directories(tmp_path):
    (tmp_path / "keep.py").write_text(_BAD)
    for skipped in ("fixtures", "__pycache__", ".hidden"):
        (tmp_path / skipped).mkdir()
        (tmp_path / skipped / "bad.py").write_text(_BAD)
    (tmp_path / "pkg" / "fixtures").mkdir(parents=True)
    (tmp_path / "pkg" / "fixtures" / "bad.py").write_text(_BAD)
    result = run_check([str(tmp_path)])
    assert result.files_checked == 1
    assert [f.path for f in result.findings] == [str(tmp_path / "keep.py")]


def test_explicit_file_beats_exclude(tmp_path):
    """A file or directory named on the command line is checked even
    inside a ``fixtures`` directory the walk would skip."""
    (tmp_path / "fixtures").mkdir()
    target = tmp_path / "fixtures" / "bad.py"
    target.write_text(_BAD)
    for path in (target, tmp_path / "fixtures"):
        result = run_check([str(path)])
        assert result.files_checked == 1
        assert result.exit_code == 1


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def (:\n")
    result = run_check([str(bad)])
    assert [f.rule_id for f in result.findings] == ["PARSE-ERROR"]
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


def test_json_schema_is_stable():
    result = run_check([fixture("num_float_eq.py")])
    document = json.loads(render_json(result))
    assert document["version"] == 3
    assert set(document) == {"version", "files_checked", "rules_run",
                             "counts", "findings"}
    assert document["files_checked"] == 1
    assert document["counts"] == {"NUM-FLOAT-EQ": 1}
    (finding,) = document["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "severity",
                            "message"}
    assert finding["rule"] == "NUM-FLOAT-EQ"
    assert finding["severity"] == "error"
    assert finding["line"] > 0


def test_text_report_is_grepable():
    result = run_check([fixture("det_random.py")])
    text = render_text(result)
    first = text.splitlines()[0]
    path, line, col, rest = first.split(":", 3)
    assert path.endswith("det_random.py")
    assert int(line) > 0 and int(col) >= 0
    assert rest.strip().startswith("DET-RANDOM")
    assert text.splitlines()[-1].startswith("1 finding ")


def test_findings_sort_deterministically():
    findings = [
        Finding("b.py", 3, 0, "DET-RANDOM", "m"),
        Finding("a.py", 9, 0, "DET-RANDOM", "m"),
        Finding("a.py", 2, 4, "NUM-FLOAT-EQ", "m"),
    ]
    assert sorted(findings) == [findings[2], findings[1], findings[0]]


# ----------------------------------------------------------------------
# The shipped tests tree and the rule catalogue
# ----------------------------------------------------------------------


def test_staticcheck_tests_tree_is_clean_without_its_fixtures():
    # Every bad-example fixture sits under fixtures/, which the walk
    # skips; the test modules themselves must be clean.
    tests_dir = os.path.join(REPO_ROOT, "tests", "staticcheck")
    result = run_check([tests_dir])
    assert result.findings == []
    assert not any(os.sep + "fixtures" + os.sep in path
                   for path in expand_paths([tests_dir]))


def test_rule_catalogue_is_complete_and_sorted():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) == {
        "DET-RANDOM", "DET-TIME", "DET-SET-ORDER", "DET-ID-HASH",
        "POOL-CALLABLE", "POOL-RECORDER", "NUM-FLOAT-EQ",
        "LAY-UPWARD", "LAY-CYCLE", "LAY-KERNEL",
        "REG-UNKNOWN-SITE", "REG-DEAD-METRIC", "SUP-UNUSED",
    }
    with pytest.raises(KeyError):
        get_rule("NO-SUCH-RULE")


def test_pool_callable_flags_functions_nested_in_the_outermost_def(tmp_path):
    """A name passed to a pool entry point is flagged when a function of
    that name is defined anywhere inside the outermost enclosing def —
    including its decorators and defaults — and never at module or class
    level."""
    path = tmp_path / "pool_nested.py"
    path.write_text(
        "def outer(pool):\n"
        "    def inner():\n"
        "        def deep():\n"
        "            pass\n"
        "    pool.submit(inner)\n"          # line 5: flagged
        "    pool.submit(helper, outer)\n"  # module-level names: clean
        "    return optimize_many(deep)\n"  # line 7: flagged
        "\n"
        "def helper():\n"
        "    pass\n"
        "\n"
        "@deco(pool.submit(local))\n"      # line 12: flagged
        "def decorated(pool):\n"
        "    def local():\n"
        "        pass\n"
        "\n"
        "class Holder:\n"
        "    def method(self, pool):\n"
        "        pass\n"
        "    job = pool.submit(method)\n"   # class level: clean
        "pool.submit(inner)\n")            # module level: clean
    result = run_check([str(path)], rules=[get_rule("POOL-CALLABLE")])
    assert [(f.line, f.rule_id) for f in result.findings] == [
        (5, "POOL-CALLABLE"), (7, "POOL-CALLABLE"), (12, "POOL-CALLABLE")]
