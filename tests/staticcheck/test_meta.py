"""Meta: the analyzer must pass on the shipped tree, via the real CLI.

The whole tree is analyzed twice per module: once as text over
``src/repro`` and once as the CI invocation (JSON over ``src/repro``,
``tests`` and ``perfbench`` with ``--output``), shared through
``ci_run``.
"""

import contextlib
import io
import json
import os

import pytest

from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src", "repro")
TESTS = os.path.join(REPO_ROOT, "tests")
PERFBENCH = os.path.join(REPO_ROOT, "perfbench")
CLEAN_FIXTURE = os.path.join(TESTS, "staticcheck", "fixtures",
                             "suppressed.py")


@pytest.fixture(scope="module")
def ci_run(tmp_path_factory):
    """``(exit code, stdout document, --output document)`` of the CI
    invocation.  The directory walk skips the fixtures; everything else
    must be clean."""
    target = tmp_path_factory.mktemp("ci") / "staticcheck-report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["check", "--format", "json",
                         "--output", str(target), SRC, TESTS,
                         PERFBENCH])
    return (code, json.loads(stdout.getvalue()),
            json.loads(target.read_text()))


def test_shipped_tree_is_clean(capsys):
    assert cli_main(["check", SRC]) == 0
    out = capsys.readouterr().out
    assert "files checked" in out.strip().splitlines()[-1]


def test_tests_tree_is_clean_too(ci_run):
    code, _, _ = ci_run
    assert code == 0


def test_ci_json_invocation_shape(ci_run):
    _, document, _ = ci_run
    assert document["version"] == 3
    assert document["findings"] == []
    assert document["files_checked"] > 50
    assert len(document["rules_run"]) == 13


def test_list_rules_is_sorted(capsys):
    assert cli_main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET-RANDOM", "POOL-CALLABLE", "NUM-FLOAT-EQ",
                    "LAY-UPWARD", "LAY-CYCLE", "LAY-KERNEL",
                    "REG-DEAD-METRIC", "SUP-UNUSED"):
        assert rule_id in out
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == sorted(listed)


def test_unknown_rule_is_a_usage_error(capsys):
    assert cli_main(["check", "--rules", "NO-SUCH-RULE", SRC]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys):
    assert cli_main(["check", os.path.join(REPO_ROOT, "no-such-dir")]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err
    assert len(err.strip().splitlines()) == 1


def test_output_file_written_alongside_stdout(ci_run):
    _, on_stdout, on_disk = ci_run
    assert on_disk == on_stdout
    assert on_disk["version"] == 3


def test_output_to_unwritable_path_is_an_io_error(capsys):
    assert cli_main(["check", "--format", "json",
                     "--output", os.path.join(REPO_ROOT, "no-such-dir",
                                              "report.json"),
                     CLEAN_FIXTURE]) == 2
    assert "cannot write" in capsys.readouterr().err
