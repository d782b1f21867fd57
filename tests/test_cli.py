"""Tests for the CLI driver (fast paths only)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_net_command_runs_all_flows(self, capsys):
        assert main(["net", "--sinks", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "flow1_lttree_ptree" in out
        assert "flow2_ptree_vg" in out
        assert "flow3_merlin" in out
        assert "delay=" in out

    def test_net_command_dot_output(self, capsys):
        assert main(["net", "--sinks", "3", "--seed", "1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph routing_tree" in out

    def test_ablation_alpha(self, capsys):
        assert main(["ablation", "alpha", "--sinks", "4"]) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out

    def test_ablation_convergence(self, capsys):
        assert main(["ablation", "convergence", "--sinks", "4"]) == 0
        out = capsys.readouterr().out
        assert "iteration_1" in out

    @pytest.mark.parametrize("command",
                             ["net", "serve", "loadgen", "closure"])
    def test_no_subcommand_takes_a_backend_flag(self, command, capsys):
        """The curve kernel is CurveConfig.backend, not a CLI option."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--backend" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_no_serving_subcommand_takes_a_shards_flag(self, command,
                                                       capsys):
        """The server runs one service; there are no shards to count."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--shards" not in capsys.readouterr().out


class TestResolveCliWorkers:
    def test_none_falls_back_to_config(self):
        from repro.cli import _resolve_cli_workers
        from repro.core.config import MerlinConfig

        assert _resolve_cli_workers(None, MerlinConfig()) == 1
        assert _resolve_cli_workers(
            None, MerlinConfig().with_(workers=3)) == 3

    def test_zero_means_one_per_cpu(self):
        from repro.cli import _resolve_cli_workers
        from repro.core.config import MerlinConfig
        from repro.parallel import default_worker_count

        assert _resolve_cli_workers(0, MerlinConfig()) \
            == default_worker_count()

    def test_explicit_value_wins(self):
        from repro.cli import _resolve_cli_workers
        from repro.core.config import MerlinConfig

        assert _resolve_cli_workers(5, MerlinConfig().with_(workers=2)) == 5


class TestWorkersFlag:
    @pytest.mark.parametrize("argv", [
        ["net", "--sinks", "3", "--multi-start", "2"],
        ["serve", "--port", "0", "--preset", "test"],
        ["loadgen", "--requests", "2", "--nets", "1", "--preset", "test"],
        ["closure", "--circuit", "10:3:4:3", "--preset", "test"],
    ], ids=["net", "serve", "loadgen", "closure"])
    def test_negative_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers: must be an integer >= 0" in err
        assert "Traceback" not in err

    #: Arguments that make each command's run cheap and finite should a
    #: bad value slip through parsing (``serve`` is stubbed out below).
    _VALID = {
        "serve": ["--preset", "test"],
        "loadgen": ["--requests", "2", "--nets", "1", "--min-sinks", "2",
                    "--max-sinks", "2", "--preset", "test"],
        "net": ["--seed", "2"],
        "ablation": ["--seed", "2"],
    }

    @pytest.mark.parametrize("argv,flag,expected", [
        (["serve", "--queue-limit", "0"], "--queue-limit",
         "an integer >= 1"),
        (["serve", "--cache-capacity", "0"], "--cache-capacity",
         "an integer >= 1"),
        (["serve", "--pool-retries", "-1"], "--pool-retries",
         "an integer >= 0"),
        (["loadgen", "--queue-limit", "0"], "--queue-limit",
         "an integer >= 1"),
        (["serve", "--cache-capacity", "many"], "--cache-capacity",
         "an integer >= 1"),
        (["serve", "--budget-ops", "-5"], "--budget-ops", "an integer >= 0"),
        (["serve", "--port", "-5"], "--port", "an integer from 0 to 65535"),
        (["serve", "--port", "65536"], "--port",
         "an integer from 0 to 65535"),
        (["net", "--sinks", "0"], "--sinks", "an integer >= 1"),
        (["net", "--sinks", "-2"], "--sinks", "an integer >= 1"),
        (["net", "--sinks", "3", "--multi-start", "-1"], "--multi-start",
         "an integer >= 0"),
        (["ablation", "curves", "--sinks", "0"], "--sinks",
         "an integer >= 1"),
        (["loadgen", "--concurrency", "-3"], "--concurrency",
         "an integer >= 1"),
        (["serve", "--deadline", "-1"], "--deadline",
         "a finite number of seconds >= 0"),
        (["serve", "--deadline", "nan"], "--deadline",
         "a finite number of seconds >= 0"),
        (["serve", "--drain-timeout", "-1"], "--drain-timeout",
         "a finite number of seconds >= 0"),
        (["serve", "--job-timeout", "0"], "--job-timeout",
         "a finite number of seconds > 0"),
        (["serve", "--job-timeout", "soon"], "--job-timeout",
         "a finite number of seconds > 0"),
    ], ids=["serve-queue-limit", "serve-cache-capacity",
            "serve-pool-retries", "loadgen-queue-limit", "not-a-number",
            "serve-budget-ops", "serve-port-negative", "serve-port-too-big",
            "net-sinks-zero", "net-sinks-negative", "net-multi-start",
            "ablation-sinks", "loadgen-concurrency", "serve-deadline",
            "serve-deadline-nan", "serve-drain-timeout",
            "serve-job-timeout-zero", "serve-job-timeout-not-a-number"])
    def test_out_of_range_count_is_a_usage_error(self, argv, flag, expected,
                                                 capsys, monkeypatch):
        """The constructors' range checks, enforced at parse time:
        exit 2 with a usage line, never a traceback, a silently clamped
        value or a server that fails every request."""
        import repro.serve as serve_mod

        monkeypatch.setattr(serve_mod, "serve_async",
                            lambda *args, **kwargs: None)
        with pytest.raises(SystemExit) as exc:
            main(argv + self._VALID[argv[0]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be {expected}" in err
        assert "Traceback" not in err

    def test_loadgen_zero_means_one_per_cpu(self, capsys):
        assert main(["loadgen", "--workers", "0", "--requests", "2",
                     "--nets", "1", "--min-sinks", "2", "--max-sinks", "2",
                     "--preset", "test"]) == 0
        assert "FAIL" not in capsys.readouterr().err


class TestServeCommand:
    @pytest.mark.parametrize("extra", [[], ["--async"]])
    def test_serve_wires_the_sharded_tier(self, monkeypatch, tmp_path,
                                          extra):
        import repro.serve as serve_mod

        captured = {}

        def fake_serve_async(host, port, service, **kwargs):
            captured.update(host=host, port=port, service=service, **kwargs)

        monkeypatch.setattr(serve_mod, "serve_async", fake_serve_async)
        assert main(["serve", "--port", "9999", "--workers", "3",
                     "--preset", "test", "--job-timeout", "7.5",
                     "--cache-capacity", "11",
                     "--cache-dir", str(tmp_path / "c")] + extra) == 0
        assert captured["host"] == "127.0.0.1"
        assert captured["port"] == 9999
        assert captured["queue_limit"] == 64
        service = captured["service"]
        assert service.workers == 3
        assert service.job_timeout_s == 7.5
        assert service.cache.stats()["capacity"] == 11
        assert service.cache.stats()["disk_dir"] == str(tmp_path / "c")

    def test_serve_caches_512_entries_by_default(self, monkeypatch):
        import repro.serve as serve_mod

        captured = {}
        monkeypatch.setattr(
            serve_mod, "serve_async",
            lambda host, port, service, **kwargs: captured.update(
                service=service))
        assert main(["serve", "--port", "0", "--preset", "test"]) == 0
        assert captured["service"].cache.stats()["capacity"] == 512

    def test_serve_rejects_bad_preset(self):
        with pytest.raises(SystemExit):
            main(["serve", "--preset", "bogus"])

    def test_serve_imports_neither_the_analyzer_nor_the_bench(self):
        # A fresh interpreter: this suite imports both elsewhere.
        probe = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['serve', '--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['repro', 'staticcheck'],\n"
            "                                     ['repro', 'bench'])))\n")
        repro_root = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": repro_root})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDelegatedSubcommands:
    """``check`` and ``bench`` parse their own argv."""

    def test_help_lists_both(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "check" in out and "bench" in out

    def test_check_help_prints_the_analyzer_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        out = capsys.readouterr().out
        assert "--rules" in out and "--list-rules" in out


class TestNetFileFlag:
    """``net --net-file`` loads JSON nets and fails loudly but cleanly."""

    def _write(self, tmp_path, payload):
        path = tmp_path / "net.json"
        path.write_text(payload, encoding="utf-8")
        return str(path)

    def _good_payload(self):
        import json

        return json.dumps({
            "name": "filed",
            "source": [0.0, 0.0],
            "sinks": [
                {"name": "u1", "position": [400.0, 100.0],
                 "load": 5.0, "required_time": 600.0},
                {"name": "u2", "position": [100.0, 500.0],
                 "load": 7.0, "required_time": 700.0},
            ],
        })

    def test_valid_file_runs_all_flows(self, tmp_path, capsys):
        path = self._write(tmp_path, self._good_payload())
        assert main(["net", "--net-file", path]) == 0
        out = capsys.readouterr().out
        assert "flow1_lttree_ptree" in out
        assert "flow3_merlin" in out

    def test_wrapped_payload_is_accepted(self, tmp_path, capsys):
        path = self._write(
            tmp_path, '{"net": ' + self._good_payload() + "}")
        assert main(["net", "--net-file", path]) == 0
        assert "flow3_merlin" in capsys.readouterr().out

    def test_malformed_payload_exits_2_with_one_line_error(
            self, tmp_path, capsys):
        import json

        data = json.loads(self._good_payload())
        del data["sinks"][0]["load"]
        path = self._write(tmp_path, json.dumps(data))
        assert main(["net", "--net-file", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one line, no traceback
        assert lines[0].startswith("error: ")
        assert "sink #0" in lines[0] and "'load'" in lines[0]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["net", "--net-file",
                     str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "cannot read" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "{not json")
        assert main(["net", "--net-file", path]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err


class TestClosureCommand:
    def test_list_orders(self, capsys):
        assert main(["closure", "--list-orders"]) == 0
        out = capsys.readouterr().out
        for name in ("criticality", "fanout", "slack_weighted", "learned"):
            assert name in out

    def test_custom_spec_closes_timing(self, capsys):
        assert main(["closure", "--circuit", "10:3:4:3", "--preset",
                     "test", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "policy criticality" in out
        assert "converged after" in out
        assert "iter 1:" in out

    def test_json_output_parses(self, capsys):
        import json

        assert main(["closure", "--circuit", "10:3:4:3", "--preset",
                     "test", "--order", "fanout", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["converged"] is True
        assert body["policy"] == "fanout"
        assert body["iterations"]

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["closure", "--circuit", "nonesuch",
                     "--preset", "test"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one line, no traceback
        assert lines[0].startswith("error: ")
        assert "b9" in lines[0]  # names the known circuits

    def test_unknown_order_exits_2(self, capsys):
        assert main(["closure", "--circuit", "10:3:4:3", "--preset",
                     "test", "--order", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "criticality" in err

    def test_netlist_file_round_trip(self, tmp_path, capsys):
        import json

        from repro.netlist.generator import CircuitSpec, generate_circuit
        from repro.netlist.io import netlist_to_dict

        spec = CircuitSpec(name="cli_file", primary_inputs=4,
                           primary_outputs=3, logic_gates=10, levels=3,
                           max_fanout=4, seed=3)
        path = tmp_path / "netlist.json"
        path.write_text(json.dumps(netlist_to_dict(
            generate_circuit(spec))))
        assert main(["closure", "--netlist-file", str(path),
                     "--preset", "test"]) == 0
        assert "converged after" in capsys.readouterr().out

    def test_bad_netlist_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["closure", "--netlist-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load netlist")
