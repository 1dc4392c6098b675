"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.partitioning.registry import available_partitioners, resolve


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "g.adj", "out"])
        assert args.method == "spnl"
        assert args.k == 32
        assert args.shards == "auto"

    def test_bench_targets_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])

    def test_int_or_auto_knobs(self, capsys):
        args = build_parser().parse_args(
            ["partition", "g.adj", "out", "--shards", "4",
             "--gamma-buckets", "auto"])
        assert (args.shards, args.gamma_buckets) == (4, "auto")
        args = build_parser().parse_args(
            ["partition", "g.adj", "out", "--gamma-buckets", "512"])
        assert (args.shards, args.gamma_buckets) == ("auto", 512)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["partition", "g.adj", "out", "--gamma-buckets", "many"])
        assert exit_info.value.code == 2
        assert "'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["partition", "g.adj", "out", "--gamma-store", "hashed"],
        ["serve", "g.adj", "--no-wal-pipeline"]], ids=["gamma", "wal"])
    def test_removed_flags_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["analyze", "g.adj", "routes.txt"], "'analyze'"),
        (["edgepartition", "g.adj", "out", "--method", "greedy"],
         "'greedy'")], ids=["analyze", "edge-greedy"])
    def test_removed_commands_are_refused(self, argv, named, capsys):
        """The deleted ``analyze`` command and edge baselines are usage
        errors, not silent no-ops."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: {named}" in capsys.readouterr().err


def _streaming_names():
    return {name for name in available_partitioners()
            if resolve(name).is_streaming}


class TestMethodErrors:
    """An unknown or wrong-kind ``--method`` exits 2 and lists every
    registered name the command accepts, and no other."""

    @pytest.mark.parametrize("argv,bad,expected", [
        (["partition", "g.adj", "out"], "nosuch",
         lambda: set(available_partitioners())),
        (["edgepartition", "g.adj", "out"], "spnl",
         lambda: set(available_partitioners("edge"))),
        (["serve", "g.adj"], "metis", _streaming_names),
    ], ids=["partition-unknown", "edgepartition-wrong-kind",
            "serve-not-streaming"])
    def test_invalid_method_lists_the_accepted_names(
            self, argv, bad, expected, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--method", bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {bad!r}" in err
        listed = err.rsplit("(choose from ", 1)[1].rsplit(")", 1)[0]
        assert {name.strip().strip("'") for name in listed.split(",")} \
            == expected()


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g.adj"
        assert main(["generate", str(out), "--vertices", "500",
                     "--seed", "2"]) == 0
        assert out.exists()
        assert "|V|=500" in capsys.readouterr().out

    def test_generate_named_dataset(self, tmp_path, capsys):
        out = tmp_path / "uk.adj"
        assert main(["generate", str(out), "--dataset", "uk2005"]) == 0
        assert "uk2005" in capsys.readouterr().out


class TestPartitionEvaluateInfo:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.adj"
        main(["generate", str(out), "--vertices", "800", "--seed", "4"])
        return out

    def test_partition_hashed_gamma(self, graph_file, tmp_path, capsys):
        routes = tmp_path / "routes.txt"
        assert main(["partition", str(graph_file), str(routes),
                     "-k", "4", "--gamma-buckets", "100"]) == 0
        assert len(np.loadtxt(routes, dtype=int)) == 800

    def test_partition_writes_routes(self, graph_file, tmp_path, capsys):
        routes = tmp_path / "routes.txt"
        assert main(["partition", str(graph_file), str(routes),
                     "--method", "spnl", "-k", "4"]) == 0
        table = np.loadtxt(routes, dtype=int)
        assert len(table) == 800
        assert set(np.unique(table)) <= set(range(4))
        assert "ECR=" in capsys.readouterr().out

    def test_partition_evaluates_the_route_once(self, graph_file, tmp_path,
                                                capsys, monkeypatch):
        """The save's report is the one printed: one evaluation, and the
        line reads as an evaluation of the saved route does."""
        from repro.graph.io import read_adjacency
        from repro.partitioning import metrics, persistence
        calls, evaluate = [], metrics.evaluate

        def counted(graph, assignment):
            calls.append(1)
            return evaluate(graph, assignment)

        for module in (metrics, persistence):
            monkeypatch.setattr(module, "evaluate", counted)
        routes = tmp_path / "routes.txt"
        assert main(["partition", str(graph_file), str(routes),
                     "--method", "spnl", "-k", "4"]) == 0
        monkeypatch.undo()
        assert len(calls) == 1
        assignment, header = persistence.load_assignment(routes)
        report = evaluate(read_adjacency(graph_file), assignment)
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(f"{header['partitioner']}: {report} PT=")

    def test_every_method_runs(self, graph_file, tmp_path):
        for method in ("ldg", "fennel", "spn", "spnl", "hash", "range",
                       "metis", "xtrapulp"):
            routes = tmp_path / f"{method}.txt"
            assert main(["partition", str(graph_file), str(routes),
                         "--method", method, "-k", "4"]) == 0

    def test_process_sharded_partition(self, graph_file, tmp_path):
        routes = tmp_path / "routes.txt"
        assert main(["partition", str(graph_file), str(routes),
                     "--method", "spnl", "-k", "4", "--shards", "1",
                     "--processes", "4"]) == 0
        assert len(np.loadtxt(routes, dtype=int)) == 800

    def test_process_sharded_checkpoint_resume(self, graph_file,
                                               tmp_path, capsys):
        base = ["partition", str(graph_file), "--method", "spnl",
                "-k", "4", "--shards", "1", "--processes", "4"]
        clean = tmp_path / "clean.txt"
        assert main([base[0], base[1], str(clean), *base[2:],
                     "--checkpoint-every", "200"]) == 0
        snaps = sorted((tmp_path / "clean.txt.ckpt").glob("*.snap"))
        assert snaps
        resumed = tmp_path / "resumed.txt"
        assert main([base[0], base[1], str(resumed), *base[2:],
                     "--resume-from", str(snaps[0]),
                     "--checkpoint-dir",
                     str(tmp_path / "clean.txt.ckpt")]) == 0
        assert "resumed from" in capsys.readouterr().out
        np.testing.assert_array_equal(np.loadtxt(clean, dtype=int),
                                      np.loadtxt(resumed, dtype=int))

    def test_processes_reject_offline_method(self, graph_file,
                                             tmp_path):
        with pytest.raises(SystemExit, match="offline"):
            main(["partition", str(graph_file),
                  str(tmp_path / "r.txt"), "--method", "metis",
                  "-k", "4", "--processes", "2"])

    def test_processes_reject_unsupported_heuristic(self, graph_file,
                                                    tmp_path):
        with pytest.raises(SystemExit, match="score lanes"):
            main(["partition", str(graph_file),
                  str(tmp_path / "r.txt"), "--method", "random",
                  "-k", "4", "--processes", "2"])

    def test_evaluate_roundtrip(self, graph_file, tmp_path, capsys):
        routes = tmp_path / "routes.txt"
        main(["partition", str(graph_file), str(routes), "-k", "4"])
        capsys.readouterr()
        assert main(["evaluate", str(graph_file), str(routes)]) == 0
        assert "ECR=" in capsys.readouterr().out

    def test_info(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "|V|" in out

    def test_named_dataset_partition(self, tmp_path):
        routes = tmp_path / "routes.txt"
        assert main(["partition", "uk2005", str(routes), "--method",
                     "ldg", "-k", "8"]) == 0

    def test_missing_graph_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="neither"):
            main(["info", str(tmp_path / "missing.adj")])


class TestEdgePartition:
    def test_edgepartition_writes_assignment(self, tmp_path, capsys):
        graph = tmp_path / "g.adj"
        main(["generate", str(graph), "--vertices", "600", "--seed", "6"])
        out = tmp_path / "edges.txt"
        assert main(["edgepartition", str(graph), str(out),
                     "--method", "hdrf", "-k", "4"]) == 0
        table = np.loadtxt(out, dtype=int)
        assert set(np.unique(table)) <= set(range(4))
        assert "RF=" in capsys.readouterr().out

    def test_every_edge_method_runs(self, tmp_path):
        graph = tmp_path / "g.adj"
        main(["generate", str(graph), "--vertices", "400", "--seed", "6"])
        for method in ("hdrf", "spnl-e"):
            out = tmp_path / f"{method}.txt"
            assert main(["edgepartition", str(graph), str(out),
                         "--method", method, "-k", "4"]) == 0


class TestBenchCommand:
    def test_table2(self, capsys):
        assert main(["bench", "table2"]) == 0
        assert "stanford" in capsys.readouterr().out

    def test_fig3_small_k(self, capsys):
        assert main(["bench", "fig3", "-k", "4"]) == 0
        assert "lambda" in capsys.readouterr().out


class TestTraceFlags:
    """The observability CLI surface: --trace and --probe-every."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.adj"
        main(["generate", str(out), "--vertices", "800", "--seed", "4"])
        return out

    def test_trace_writes_schema_valid_jsonl(self, graph_file, tmp_path,
                                             capsys):
        import json

        from repro.observability import validate_record

        routes = tmp_path / "routes.txt"
        trace = tmp_path / "trace.jsonl"
        assert main(["partition", str(graph_file), str(routes),
                     "--method", "spnl", "-k", "4",
                     "--trace", str(trace), "--probe-every", "100"]) == 0
        assert f"trace -> {trace}" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 800 // 100 + 1  # windows + summary
        for record in records:
            validate_record(record)
        assert records[-1]["type"] == "stream_summary"
        assert records[-1]["placements"] == 800

    def test_trace_does_not_change_assignment(self, graph_file, tmp_path):
        plain = tmp_path / "plain.txt"
        traced = tmp_path / "traced.txt"
        main(["partition", str(graph_file), str(plain),
              "--method", "spnl", "-k", "4"])
        main(["partition", str(graph_file), str(traced),
              "--method", "spnl", "-k", "4",
              "--trace", str(tmp_path / "t.jsonl")])
        np.testing.assert_array_equal(np.loadtxt(plain, dtype=int),
                                      np.loadtxt(traced, dtype=int))

    def test_probe_every_without_trace_prints_progress(
            self, graph_file, tmp_path, capsys):
        routes = tmp_path / "routes.txt"
        assert main(["partition", str(graph_file), str(routes),
                     "--method", "ldg", "-k", "4",
                     "--probe-every", "200"]) == 0
        err = capsys.readouterr().err
        assert "[probe LDG]" in err
        assert "200 placed" in err

    def test_processes_trace(self, graph_file, tmp_path, capsys,
                             shm_leak_check):
        import json

        from repro.observability import validate_record

        trace = tmp_path / "t.jsonl"
        assert main(["partition", str(graph_file),
                     str(tmp_path / "r.txt"), "--method", "spnl",
                     "-k", "4", "--processes", "2", "--shards", "1",
                     "--trace", str(trace), "--probe-every", "200"]) == 0
        assert f"trace -> {trace}" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        for record in records:
            validate_record(record)
        groups = [r for r in records if r["type"] == "parallel_group"]
        assert groups and groups[-1]["placements"] == 800
        assert records[-1]["type"] == "stream_summary"
        assert records[-1]["placements"] == 800

    def test_offline_method_ignores_trace_flags(self, graph_file,
                                                tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["partition", str(graph_file),
                     str(tmp_path / "r.txt"), "--method", "metis",
                     "-k", "4", "--trace", str(trace)]) == 0
        assert not trace.exists()
        assert "ignored" in capsys.readouterr().err
