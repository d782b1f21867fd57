"""Multi-id suppressions, end to end, and a check that writes nothing."""

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import run_check

_VIOLATION = "import random\n\n\ndef jitter(x):\n    return x + random.random()\n"


def test_check_leaves_the_checked_tree_unchanged(tmp_path, capsys):
    # The report goes to stdout only: no cache or other state file may
    # appear in the checked tree.
    (tmp_path / "bad.py").write_text(_VIOLATION)
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(["check", str(tmp_path)]) == 1
    assert "DET-RANDOM" in capsys.readouterr().out
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
