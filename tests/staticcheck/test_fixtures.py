"""Each bad-example fixture trips exactly its one intended rule."""

import os

import pytest

from repro.cli import main as cli_main
from repro.curves import native
from repro.staticcheck import run_check

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

EXPECTED = [
    ("det_random.py", "DET-RANDOM"),
    ("det_time.py", "DET-TIME"),
    ("det_set_order.py", "DET-SET-ORDER"),
    ("det_id_hash.py", "DET-ID-HASH"),
    ("pool_callable.py", "POOL-CALLABLE"),
    ("pool_recorder.py", "POOL-RECORDER"),
    ("num_float_eq.py", "NUM-FLOAT-EQ"),
    ("lay_upward.py", "LAY-UPWARD"),
    ("lay_kernel.py", "LAY-KERNEL"),
    ("reg_unknown_site.py", "REG-UNKNOWN-SITE"),
    ("sup_unused.py", "SUP-UNUSED"),
]


@pytest.mark.parametrize("name,rule_id", EXPECTED)
def test_fixture_trips_exactly_one_rule(name, rule_id):
    path = os.path.join(FIXTURES, name)
    result = run_check([path])
    assert {f.rule_id for f in result.findings} == {rule_id}, (
        f"{name} should trip only {rule_id}, got "
        f"{[f.render() for f in result.findings]}")
    assert all(f.path == path for f in result.findings)
    assert result.exit_code == 1


@pytest.mark.parametrize("name,rule_id", EXPECTED)
def test_cli_exits_nonzero_per_fixture(name, rule_id, capsys):
    code = cli_main(["check", os.path.join(FIXTURES, name)])
    out = capsys.readouterr().out
    assert code == 1
    assert rule_id in out


def test_cycle_pair_trips_only_the_cycle_rule():
    pair = [os.path.join(FIXTURES, "cycle", "cycle_a.py"),
            os.path.join(FIXTURES, "cycle", "cycle_b.py")]
    result = run_check(pair)
    assert [f.rule_id for f in result.findings] == ["LAY-CYCLE"]
    (finding,) = result.findings
    # One finding per cycle, anchored at the alphabetically first
    # member, naming the whole loop.
    assert finding.path.endswith("cycle_a.py")
    assert "repro.fixcycle.cycle_a -> repro.fixcycle.cycle_b" in (
        finding.message)
    assert result.exit_code == 1


def test_half_a_cycle_is_not_a_cycle():
    result = run_check([os.path.join(FIXTURES, "cycle", "cycle_a.py")])
    assert result.findings == []


def test_dead_metric_pair_trips_only_the_dead_metric_rule():
    # Directory fixture: the catalogue override plus an out-of-tree
    # reader, satisfying both of REG-DEAD-METRIC's presence gates.
    result = run_check([os.path.join(FIXTURES, "reg_dead_metric")])
    assert [f.rule_id for f in result.findings] == ["REG-DEAD-METRIC"]
    (finding,) = result.findings
    assert finding.path.endswith("names_catalogue.py")
    assert "EMITTED_ONLY" in finding.message
    assert result.exit_code == 1


def test_dead_metric_rule_gates_on_catalogue_and_tests_presence():
    # The catalogue alone (no out-of-tree reader in the run) must stay
    # silent: "never read" is unknowable without the test side.
    result = run_check([os.path.join(FIXTURES, "reg_dead_metric",
                                     "names_catalogue.py")])
    assert result.findings == []


def test_rules_flag_narrows_the_run():
    path = os.path.join(FIXTURES, "det_random.py")
    code = cli_main(["check", "--rules", "NUM-FLOAT-EQ", path])
    assert code == 0  # the only violation is DET-RANDOM, not selected


@pytest.mark.parametrize("statement", [
    "from repro.curves.native import deferred",
    "from repro.curves import native",
    "import repro.curves._deferred",
])
def test_engine_reaching_the_compiled_kernel_trips_lay_kernel(
        tmp_path, statement):
    """The compiled loops and their loader sit behind the kernel
    contract like the rest of the deferred kernel."""
    path = tmp_path / "engine_native.py"
    path.write_text("# staticcheck: module=repro.core.fixture_native\n"
                    f"{statement}\n")
    # The loader is checked too, so ``from repro.curves import native``
    # resolves to it as a submodule.
    result = run_check([str(path), native.__file__])
    assert [(f.rule_id, f.path) for f in result.findings] == [
        ("LAY-KERNEL", str(path))]
