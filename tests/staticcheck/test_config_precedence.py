"""Config precedence (CLI --rules vs pyproject enable/disable) and
multi-id suppressions, end to end through the real CLI."""

import textwrap

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import run_check

_VIOLATION = "import random\n\n\ndef jitter(x):\n    return x + random.random()\n"


def _project(tmp_path, staticcheck_toml):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(
        f"[tool.staticcheck]\n{staticcheck_toml}"))
    target = tmp_path / "bad.py"
    target.write_text(_VIOLATION)
    return str(target)


def test_pyproject_disable_silences_a_rule(tmp_path, capsys):
    target = _project(tmp_path, 'disable = ["DET-RANDOM"]\n')
    assert cli_main(["check", target]) == 0
    capsys.readouterr()


def test_pyproject_enable_runs_only_the_listed_rules(tmp_path, capsys):
    target = _project(tmp_path, 'enable = ["NUM-FLOAT-EQ"]\n')
    assert cli_main(["check", target]) == 0
    capsys.readouterr()
    target2 = _project(tmp_path, 'enable = ["DET-RANDOM"]\n')
    assert cli_main(["check", target2]) == 1
    capsys.readouterr()


def test_cli_rules_flag_beats_pyproject_disable(tmp_path, capsys):
    # --rules bypasses the config selection entirely: a rule disabled
    # in pyproject still runs when named explicitly.
    target = _project(tmp_path, 'disable = ["DET-RANDOM"]\n')
    assert cli_main(["check", "--rules", "DET-RANDOM", target]) == 1
    assert "DET-RANDOM" in capsys.readouterr().out


def test_cli_rules_flag_beats_pyproject_enable(tmp_path, capsys):
    target = _project(tmp_path, 'enable = ["NUM-FLOAT-EQ"]\n')
    assert cli_main(["check", "--rules", "DET-RANDOM", target]) == 1
    assert "DET-RANDOM" in capsys.readouterr().out


def test_no_config_ignores_pyproject_selection(tmp_path, capsys):
    target = _project(tmp_path, 'disable = ["DET-RANDOM"]\n')
    assert cli_main(["check", "--no-config", target]) == 1
    capsys.readouterr()


def test_check_leaves_the_checked_tree_unchanged(tmp_path, capsys):
    # The report goes to stdout only: no cache or other state file may
    # appear next to the pyproject.toml the config came from.
    _project(tmp_path, 'disable = ["DET-RANDOM"]\n')
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(["check", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(tmp_path.rglob("*")) == before


# ----------------------------------------------------------------------
# Multi-id suppressions on one line
# ----------------------------------------------------------------------

_TWO_VIOLATIONS_ONE_LINE = (
    "import random\n"
    "\n"
    "\n"
    "def snapshot(objs):\n"
    "    return {id(o): random.random() for o in objs}"
)


def test_multi_id_suppression_silences_both_rules(tmp_path):
    target = tmp_path / "twice.py"
    target.write_text(_TWO_VIOLATIONS_ONE_LINE
                      + "  # staticcheck: ignore[DET-ID-HASH,DET-RANDOM]\n")
    result = run_check([str(target)])
    assert result.findings == []


def test_multi_id_suppression_spaces_tolerated(tmp_path):
    target = tmp_path / "twice.py"
    target.write_text(_TWO_VIOLATIONS_ONE_LINE
                      + "  # staticcheck: ignore[DET-ID-HASH, DET-RANDOM]\n")
    assert run_check([str(target)]).findings == []


@pytest.mark.parametrize("kept,suppressed", [
    ("DET-RANDOM", "DET-ID-HASH"),
    ("DET-ID-HASH", "DET-RANDOM"),
])
def test_partial_suppression_keeps_the_unnamed_rule(tmp_path, kept,
                                                    suppressed):
    target = tmp_path / "twice.py"
    target.write_text(_TWO_VIOLATIONS_ONE_LINE
                      + f"  # staticcheck: ignore[{suppressed}]\n")
    result = run_check([str(target)])
    assert {f.rule_id for f in result.findings} == {kept}


def test_unsuppressed_line_trips_both_rules(tmp_path):
    target = tmp_path / "twice.py"
    target.write_text(_TWO_VIOLATIONS_ONE_LINE + "\n")
    result = run_check([str(target)])
    assert {f.rule_id for f in result.findings} == {"DET-ID-HASH",
                                                    "DET-RANDOM"}
    assert len({f.line for f in result.findings}) == 1


def test_dead_directive_in_multi_id_form_is_flagged(tmp_path):
    target = tmp_path / "quiet.py"
    target.write_text(
        "x = 1  # staticcheck: ignore[DET-RANDOM,DET-ID-HASH]\n")
    result = run_check([str(target)])
    assert [f.rule_id for f in result.findings] == ["SUP-UNUSED"]
