"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main


class TestStats:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--dataset", "Internet", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Internet" in out
        assert "n_nodes" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["stats", "--dataset", "Twitter"])


class TestBuildAndQuery:
    def test_dataset_build_query_cycle(self, tmp_path, capsys):
        index_path = str(tmp_path / "internet.npz")
        assert main([
            "build", "--dataset", "Internet", "--scale", "0.1",
            "--output", index_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "saved to" in out
        assert main(["query", "--index", index_path, "--node", "3", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "top-4 for node 3" in out
        assert out.count(".") >= 4  # four ranked lines with proximities

    def test_edge_list_build(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n2 3\n3 2\n")
        index_path = str(tmp_path / "g.npz")
        assert main([
            "build", "--edge-list", str(edges), "--output", index_path,
            "--reordering", "degree", "--c", "0.9",
        ]) == 0
        assert main(["query", "--index", index_path, "--node", "0", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "node-0" in out

    def test_build_requires_one_source(self):
        with pytest.raises(SystemExit):
            main(["build", "--output", "x.npz"])

    def test_batch_query(self, tmp_path, capsys):
        index_path = str(tmp_path / "internet.npz")
        assert main([
            "build", "--dataset", "Internet", "--scale", "0.1",
            "--output", index_path,
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "--index", index_path, "--batch", "3,7,3,12", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch of 4 queries (k=4)" in out
        assert "1 deduped" in out
        assert out.count("node ") >= 4  # one line per input query, in order

    def test_batch_rejects_garbage(self, tmp_path, capsys):
        index_path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", index_path])
        capsys.readouterr()
        assert main(["query", "--index", index_path, "--batch", "3,x"]) == 2
        assert main(["query", "--index", index_path, "--batch", ","]) == 2

    def test_node_and_batch_exclusive(self):
        with pytest.raises(SystemExit):
            main(["query", "--index", "x.npz", "--node", "1", "--batch", "2,3"])
        with pytest.raises(SystemExit):
            main(["query", "--index", "x.npz"])


class TestUpdateCommand:
    @pytest.fixture
    def index_path(self, tmp_path, capsys):
        path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", path])
        capsys.readouterr()
        return path

    def test_update_query_and_save(self, index_path, tmp_path, capsys):
        out_path = str(tmp_path / "v2.npz")
        assert main([
            "update", "--index", index_path,
            "--add", "0:5:2.0,3:4", "--node", "5", "--k", "3",
            "--output", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "applied 2 inserts, 0 deletes" in out
        assert "correction rank 2, epoch 1" in out
        assert "exact under pending updates" in out
        assert "rebuilt (pruned fast path restored)" in out
        # The saved index reflects the updates and serves queries.
        assert main(["query", "--index", out_path, "--node", "0", "--k", "3"]) == 0
        assert "top-3 for node 0" in capsys.readouterr().out

    def test_update_rejects_bad_spec(self, index_path, capsys):
        assert main(["update", "--index", index_path, "--add", "0:x"]) == 2
        assert "error" in capsys.readouterr().out
        assert main(["update", "--index", index_path]) == 2

    def test_update_missing_edge_reported(self, index_path, capsys):
        assert main(["update", "--index", index_path, "--remove", "0:149"]) == 2
        assert "does not exist" in capsys.readouterr().out


class TestServeCommand:
    @pytest.fixture
    def index_path(self, tmp_path, capsys):
        path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", path])
        capsys.readouterr()
        return path

    def test_mixed_stream(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text(
            "# mixed update/query stream\n"
            "query 3 4\n"
            "add 0 7 2.0\n"
            "add 1 9\n"
            "query 3 4\n"
            "query 3 4\n"
            "batch 3,7,3,12 4\n"
            "rebuild\n"
            "query 3 4\n"
        )
        assert main(["serve", "--index", index_path, "--ops", str(ops)]) == 0
        out = capsys.readouterr().out
        assert "[pruned, epoch 0, rank 0]" in out
        assert "applied batch: +2/-0 edges, correction rank 2" in out
        assert "[corrected, epoch 1, rank 2]" in out
        assert "[cached, epoch 1, rank 2]" in out
        assert "forced rebuild (#1)" in out
        assert "batch of 4 queries" in out
        assert "1 rebuilds" in out

    def test_policy_rank_trigger(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("add 0 7\nadd 1 9\nadd 2 11\nquery 3\n")
        assert main([
            "serve", "--index", index_path, "--ops", str(ops), "--max-rank", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "-> rebuilt" in out
        assert "[pruned, epoch 1, rank 0]" in out

    def test_bad_line_rejected(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("frobnicate 1 2\n")
        assert main(["serve", "--index", index_path, "--ops", str(ops)]) == 2
        assert "unrecognised operation" in capsys.readouterr().out

    def test_missing_ops_file(self, index_path, capsys):
        assert main(["serve", "--index", index_path, "--ops", "/nonexistent"]) == 2
        assert "cannot read ops file" in capsys.readouterr().out

    def test_trailing_update_failure_reported(self, index_path, tmp_path, capsys):
        # A bad update with no query after it only fails at the final
        # flush; it must still exit 2 with the buffering line attributed.
        ops = tmp_path / "ops.txt"
        ops.write_text("query 3 4\nremove 0 149\n")
        assert main(["serve", "--index", index_path, "--ops", str(ops)]) == 2
        out = capsys.readouterr().out
        assert "error: line 2" in out
        assert "does not exist" in out


class TestServePoolCommand:
    @pytest.fixture
    def index_path(self, tmp_path, capsys):
        path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", path])
        capsys.readouterr()
        return path

    def test_pool_stream_with_hot_swap(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text(
            "query 3 4\n"
            "add 0 7 2.0\n"
            "add 1 9\n"
            "query 3 4\n"
            "batch 3,7,3,12 4\n"
            "rebuild\n"
            "query 3 4\n"
        )
        assert main([
            "serve", "--index", index_path, "--ops", str(ops),
            "--workers", "2", "--router", "hash", "--batch-size", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "published snapshot epoch 0" in out
        assert "[epoch 1] published batch: +2/-0 edges, hot-swapped 2 workers" in out
        assert "[epoch 2] forced rebuild published and hot-swapped" in out
        assert "final pool stats:" in out
        assert "final publisher stats:" in out
        assert "snapshot_epoch: 2" in out

    def test_pool_matches_in_process_answers(self, index_path, tmp_path, capsys):
        """Same ops stream, pool vs in-process: identical ranked answers."""
        ops = tmp_path / "ops.txt"
        ops.write_text("query 3 6\nadd 0 7 2.0\nquery 3 6\nquery 12 6\n")
        assert main(["serve", "--index", index_path, "--ops", str(ops)]) == 0
        single = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("query")
        ]
        assert main([
            "serve", "--index", index_path, "--ops", str(ops), "--workers", "2",
        ]) == 0
        pooled = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("query")
        ]
        # Same label + proximity per query line (trailing path/epoch tags differ).
        def answers(lines):
            return [tuple(line.split()[:4]) for line in lines]

        assert answers(pooled) == answers(single)

    def test_pool_bad_update_reported(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("remove 0 149\nquery 3\n")
        assert main([
            "serve", "--index", index_path, "--ops", str(ops), "--workers", "2",
        ]) == 2
        out = capsys.readouterr().out
        assert "error: line 1" in out
        assert "does not exist" in out

    def test_snapshot_dir_persists_epochs(self, index_path, tmp_path, capsys):
        snap_dir = tmp_path / "snaps"
        ops = tmp_path / "ops.txt"
        ops.write_text("add 0 7\nquery 3\n")
        assert main([
            "serve", "--index", index_path, "--ops", str(ops),
            "--workers", "2", "--snapshot-dir", str(snap_dir),
        ]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in snap_dir.iterdir())
        assert "CURRENT" in names
        assert "snapshot-00000000.npz" in names
        assert "snapshot-00000001.npz" in names


class TestShardedCommands:
    @pytest.fixture
    def index_path(self, tmp_path, capsys):
        path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", path])
        capsys.readouterr()
        return path

    @pytest.fixture
    def manifest_path(self, tmp_path, capsys):
        path = str(tmp_path / "sharded.npz")
        assert main([
            "build", "--dataset", "Internet", "--scale", "0.1",
            "--shards", "3", "--partitioner", "louvain", "--output", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded into 3 shards (louvain)" in out
        assert "saved manifest + 3 shard files" in out
        return path

    def test_sharded_build_and_query(self, manifest_path, capsys):
        assert main([
            "query", "--index", manifest_path, "--node", "3", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded top-4 over 3 shards" in out
        assert "visited" in out

    def test_sharded_query_matches_single_index(
        self, index_path, manifest_path, capsys
    ):
        """The CLI-visible acceptance: same ranked lines either way."""
        assert main(["query", "--index", index_path, "--node", "5", "--k", "3"]) == 0
        single = [
            line.split()[-2:]
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith(("1.", "2.", "3."))
        ]
        assert main(["query", "--index", manifest_path, "--node", "5", "--k", "3"]) == 0
        sharded = [
            line.split()[-2:]
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith(("1.", "2.", "3."))
        ]
        assert single == sharded

    def test_sharded_batch_query(self, manifest_path, capsys):
        assert main([
            "query", "--index", manifest_path, "--batch", "3,7,3", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 queries" in out
        assert "shard-skip rate" in out

    @pytest.mark.slow
    def test_serve_sharded_stream(self, index_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text(
            "query 5 4\n"
            "add 0 5 2.0\n"
            "query 5 4\n"
            "batch 3,7,3,12 4\n"
            "rebuild\n"
            "query 5 4\n"
        )
        assert main([
            "serve", "--index", index_path, "--ops", str(ops),
            "--sharded", "--shards", "3", "--batch-size", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "published sharded snapshot epoch 0 (3 shards, louvain)" in out
        assert "re-sharded and hot-swapped 3 shard workers" in out
        assert "final shard-pool stats:" in out


class TestLoadgenCommand:
    @pytest.fixture
    def index_path(self, tmp_path, capsys):
        path = str(tmp_path / "internet.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", path])
        capsys.readouterr()
        return path

    def test_read_only_workload(self, index_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main([
            "loadgen", "--index", index_path, "--workers", "2",
            "--queries", "60", "--batch-size", "8", "--k", "4",
            "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "served 60 queries" in out
        assert "final pool stats:" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["n_queries"] == 60
        assert payload["workers"] == 2
        assert payload["pool_stats"]["queries_served"] == 60

    @pytest.mark.slow
    def test_churn_workload_publishes_snapshots(self, index_path, capsys):
        assert main([
            "loadgen", "--index", index_path, "--workers", "2",
            "--queries", "60", "--update-every", "25", "--batch-size", "8",
            "--router", "hash",
        ]) == 0
        out = capsys.readouterr().out
        assert "churn: 2 update batches" in out
        assert "2 snapshots hot-swapped" in out


class TestExperimentCommand:
    def test_fig5_small(self, capsys):
        assert main(["experiment", "--name", "fig5", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Dictionary" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--name", "fig42"])


class TestShardedManifestRejection:
    """serve/update need a single-index archive; a v3 manifest gets a
    remedy message and exit code 2, never a traceback."""

    @pytest.fixture
    def manifest_path(self, tmp_path, capsys):
        path = str(tmp_path / "sharded.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--shards", "2", "--output", path])
        capsys.readouterr()
        return path

    def test_serve_rejects_manifest(self, manifest_path, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("query 1 3\n")
        assert main([
            "serve", "--index", manifest_path, "--ops", str(ops), "--sharded",
        ]) == 2
        out = capsys.readouterr().out
        assert "format-v3" in out and "build one without --shards" in out

    def test_update_rejects_manifest(self, manifest_path, capsys):
        assert main([
            "update", "--index", manifest_path, "--add", "0:1",
        ]) == 2
        assert "format-v3" in capsys.readouterr().out

    def test_query_missing_index_is_a_message(self, tmp_path, capsys):
        assert main([
            "query", "--index", str(tmp_path / "nope.npz"), "--node", "0",
        ]) == 2
        assert "error:" in capsys.readouterr().out

    def test_sharded_flag_notice_for_ignored_options(
        self, tmp_path, capsys
    ):
        index_path = str(tmp_path / "plain.npz")
        main(["build", "--dataset", "Internet", "--scale", "0.1",
              "--output", index_path])
        capsys.readouterr()
        ops = tmp_path / "ops.txt"
        ops.write_text("query 1 3\n")
        assert main([
            "serve", "--index", index_path, "--ops", str(ops),
            "--sharded", "--shards", "2", "--workers", "8", "--router", "hash",
        ]) == 0
        out = capsys.readouterr().out
        assert "note: --sharded ignores --workers" in out
        assert "--router" in out


class TestBadUserInput:
    """An unknown node id or a non-positive k is a one-line message and
    exit code 2, never a traceback, on single archives and manifests."""

    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("bad-input")
        paths = {}
        for kind, extra in (("single", []), ("sharded", ["--shards", "2"])):
            paths[kind] = str(directory / f"{kind}.npz")
            assert main([
                "build", "--dataset", "Citation", "--scale", "0.05",
                "--output", paths[kind], *extra,
            ]) == 0
        return paths

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--node", "999999"], "error: node 999999 does not exist ("),
            (["--batch", "1,999999"], "error: node 999999 does not exist ("),
            (["--node", "1", "--k", "0"], "error: K must be positive, got 0"),
        ],
    )
    def test_query(self, archives, kind, args, message, capsys):
        assert main(["query", "--index", archives[kind], *args]) == 2
        out = capsys.readouterr().out
        assert out.startswith(message)
        assert "'" not in out

    def test_update_node(self, archives, capsys):
        assert main([
            "update", "--index", archives["single"], "--add", "0:5",
            "--node", "999999",
        ]) == 2
        assert "error: node 999999 does not exist (" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--node", "999999"], "error: node 999999 does not exist ("),
            (["--node", "1", "--k", "0"], "error: K must be positive, got 0"),
        ],
    )
    def test_update_checks_node_and_k_before_applying(
        self, archives, tmp_path, args, message, capsys
    ):
        output = tmp_path / "updated.npz"
        assert main([
            "update", "--index", archives["single"], "--add", "0:5",
            "--output", str(output), *args,
        ]) == 2
        assert capsys.readouterr().out.startswith(message)  # nothing applied
        assert not output.exists()


class TestMetricsCommand:
    def test_reader_closing_the_pipe_is_a_normal_end(self, tmp_path):
        """``repro metrics … | head``: a reader that stops after one line
        leaves exit code 0 and an empty stderr.  The output is far larger
        than a pipe buffer, so the writer always meets the closed pipe."""
        import os
        import subprocess
        import sys

        from repro.obs import MetricsRegistry, write_metrics_json

        registry = MetricsRegistry()
        for i in range(1000):
            registry.histogram(f"repro_test_{i}_seconds", help="x").observe(0.001 * i)
        path = str(tmp_path / "metrics.json")
        write_metrics_json(registry, path)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        for fmt in ("prometheus", "table"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "metrics", "--input", path,
                 "--format", fmt],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            assert proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(timeout=60), stderr) == (0, b"")
