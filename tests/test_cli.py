"""Tests for the CLI driver (fast paths only)."""

import pytest

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

    def test_net_backend_flag_is_a_thin_override(self, capsys):
        import re

        def scrub(text):  # wall-clock fields differ run to run
            return re.sub(r"time=\s*[\d.]+", "time=X", text)

        # No flag: config backend untouched (python); with flag: same
        # result either way (backends are bit-identical).
        assert main(["net", "--sinks", "3", "--seed", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(["net", "--sinks", "3", "--seed", "1",
                     "--backend", "python"]) == 0
        assert scrub(capsys.readouterr().out) == scrub(plain)


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


class TestServeCommand:
    @pytest.mark.parametrize("extra", [[], ["--async"]])
    def test_serve_wires_the_sharded_tier(self, monkeypatch, tmp_path,
                                          extra):
        import repro.serve as serve_mod
        from repro.serve import build_shard_services

        captured = {}

        def fake_serve_async(host, port, **kwargs):
            captured.update(host=host, port=port, **kwargs)

        monkeypatch.setattr(serve_mod, "serve_async", fake_serve_async)
        assert main(["serve", "--port", "9999", "--workers", "3",
                     "--preset", "test", "--job-timeout", "7.5",
                     "--cache-capacity", "11",
                     "--cache-dir", str(tmp_path / "c")] + extra) == 0
        assert captured["host"] == "127.0.0.1"
        assert captured["port"] == 9999
        assert captured["shards"] == 2
        assert captured["queue_limit"] == 64
        services = build_shard_services(
            captured["shards"], cache_capacity=captured["cache_capacity"],
            disk_dir=captured["disk_dir"],
            service_factory=captured["service_factory"])
        try:
            for svc in services:
                assert svc.workers == 3
                assert svc.job_timeout_s == 7.5
                assert svc.cache.stats()["capacity"] == 11
                assert svc.cache.stats()["disk_dir"] == str(tmp_path / "c")
        finally:
            for svc in services:
                svc.close()

    def test_serve_rejects_bad_preset(self):
        with pytest.raises(SystemExit):
            main(["serve", "--preset", "bogus"])


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
