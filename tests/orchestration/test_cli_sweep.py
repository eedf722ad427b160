"""Tests for the ``repro sweep`` scenario-matrix CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seeds == 10
        assert args.grid is None and args.topologies is None
        assert args.adversaries is None and args.value_counts is None
        assert args.workers == 1
        assert args.jsonl is None and args.progress is False

    def test_matrix_flags(self):
        args = build_parser().parse_args([
            "sweep", "--grid", "4:1,7:2", "--topologies", "minimal,timely",
            "--adversaries", "crash,two_faced:evil", "--value-counts", "1,2",
            "--workers", "4", "--jsonl", "out.jsonl", "--progress",
        ])
        assert args.grid == "4:1,7:2"
        assert args.workers == 4 and args.jsonl == "out.jsonl"
        assert args.progress is True

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "4-1"])

    def test_empty_matrix_rejected(self):
        # n=6, t=2 violates n > 3t: no feasible cell remains.
        with pytest.raises(SystemExit, match="empty"):
            main(["sweep", "--grid", "6:2"])

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit, match="unknown adversary"):
            main(["sweep", "--adversaries", "wizardry", "--seeds", "1"])


class TestSweepCommandMatrix:
    def test_single_cell_output(self, capsys):
        code = main(["sweep", "--n", "4", "--t", "1", "--seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided      : 2/2 seeds" in out
        assert "safety       : OK" in out
        assert "throughput   :" in out

    def test_multi_cell_table(self, capsys):
        code = main([
            "sweep", "--grid", "4:1", "--adversaries", "crash,two_faced:evil",
            "--seeds", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "n4/t1/single_bisource/crash/m2/f1" in out
        assert "n4/t1/single_bisource/two_faced:evil/m2/f1" in out
        assert "decided      : 2/2 seeds" in out

    def test_values_flow_into_sweep(self, capsys):
        code = main(["sweep", "--values", "apply,rollback", "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'apply'" in out  # the user's values, not generic v0/v1

    def test_zero_seeds_message_names_the_cause(self, capsys):
        with pytest.raises(SystemExit, match="no seeds"):
            main(["sweep", "--seeds", "0"])

    def test_progress_lines(self, capsys):
        code = main(["sweep", "--seeds", "2", "--progress"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[1/2]" in out and "[2/2]" in out

    def test_nonzero_exit_on_timeouts(self, capsys):
        code = main([
            "sweep", "--topology", "async", "--max-time", "5", "--seeds", "1",
        ])
        assert code == 1

    def test_jsonl_schema(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        code = main([
            "sweep", "--seeds", "2", "--adversaries", "crash,none",
            "--jsonl", str(path),
        ])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # 2 cells x 2 seeds
        for line in lines:
            record = json.loads(line)
            assert {
                "n", "t", "topology", "adversary", "num_values", "seed",
                "seed_index", "cell_id", "decided", "decisions", "rounds",
                "max_round", "messages_sent", "finished_at", "timed_out",
                "invariants_ok", "violations", "error",
            } <= set(record)
            assert record["decided"] is True
            assert record["invariants_ok"] is True

    @pytest.mark.parametrize("command", [
        ["sweep"], ["profile"], ["dispatch", "claim", "DIR"],
    ])
    def test_backend_is_serial_or_parallel(self, command, capsys):
        # The cooperative-async backend is gone: a worker count is all
        # there is to choose, and argparse says so.
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--backend", "async"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'async'" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, workers, expected", [
        ("serial", 4, 1), ("auto", 1, 1), ("auto", 3, 3),
        ("parallel", 3, 3), ("parallel", 1, 1),
    ])
    def test_backend_flags_resolve_to_a_worker_count(
        self, backend, workers, expected
    ):
        from repro.cli.options import resolve_workers

        assert resolve_workers(backend, workers) == expected

    def test_unset_workers_default_to_the_schedulable_cpus(self, monkeypatch):
        from repro.cli.options import resolve_workers

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers("parallel", None) == 5
        assert resolve_workers("serial", None) == 1

    def test_end_to_end_two_workers(self, tmp_path, capsys):
        # A tiny genuinely multi-process run: 8 scenarios on 2 workers,
        # persisted, and identical to the serial CLI run.
        argv = [
            "sweep", "--grid", "4:1", "--topologies", "minimal,timely",
            "--adversaries", "crash,two_faced:evil", "--seeds", "2",
        ]
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        assert main(argv + ["--jsonl", str(serial_path)]) == 0
        assert main(argv + ["--workers", "2", "--jsonl", str(parallel_path)]) == 0
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        serial = [json.loads(l) for l in serial_path.read_text().splitlines()]
        parallel = [json.loads(l) for l in parallel_path.read_text().splitlines()]
        assert serial == parallel
        assert len(serial) == 8


class TestSweepCache:
    ARGV = ["sweep", "--grid", "4:1", "--adversaries", "crash,two_faced:evil",
            "--seeds", "2"]

    def test_second_run_executes_zero_bit_identical(self, tmp_path, capsys):
        # The acceptance criterion: same sweep + same cache dir twice ->
        # the rerun executes nothing and persists identical bytes.
        cache_dir = str(tmp_path / "cache")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main(self.ARGV + ["--cache", cache_dir,
                                 "--jsonl", str(first)]) == 0
        cold_out = capsys.readouterr().out
        assert "0 hit(s), 4 executed" in cold_out
        assert main(self.ARGV + ["--cache", cache_dir,
                                 "--jsonl", str(second)]) == 0
        warm_out = capsys.readouterr().out
        assert "4 hit(s), 0 executed" in warm_out
        assert first.read_bytes() == second.read_bytes()

    def test_cache_shared_across_backends(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGV + ["--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(self.ARGV + ["--cache", cache_dir,
                                 "--backend", "parallel",
                                 "--workers", "2"]) == 0
        assert "4 hit(s), 0 executed" in capsys.readouterr().out

    def test_resume_prints_the_plan(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGV + ["--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(self.ARGV + ["--cache", cache_dir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume       : 4/4 scenarios cached, 0 to run" in out

    def test_resume_requires_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(self.ARGV + ["--resume"])

    def test_no_cache_no_cache_line(self, capsys):
        assert main(["sweep", "--seeds", "1"]) == 0
        assert "cache        :" not in capsys.readouterr().out


class TestMergeCommand:
    def _shard(self, tmp_path, name, adversary):
        path = tmp_path / name
        assert main(["sweep", "--grid", "4:1", "--adversaries", adversary,
                     "--seeds", "2", "--jsonl", str(path)]) == 0
        return path

    def test_merge_disjoint_shards(self, tmp_path, capsys):
        a = self._shard(tmp_path, "a.jsonl", "crash")
        b = self._shard(tmp_path, "b.jsonl", "two_faced:evil")
        capsys.readouterr()
        out_path = tmp_path / "merged.jsonl"
        assert main(["merge", str(a), str(b), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "2 file(s), 4 record(s), 0 duplicate(s)" in out
        assert "decided      : 4/4 seeds" in out
        assert "n4/t1/single_bisource/crash/m2/f1" in out
        assert "n4/t1/single_bisource/two_faced:evil/m2/f1" in out
        assert len(out_path.read_text().splitlines()) == 4

    def test_merge_overlap_dedupes(self, tmp_path, capsys):
        a = self._shard(tmp_path, "a.jsonl", "crash")
        capsys.readouterr()
        assert main(["merge", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "4 record(s), 2 duplicate(s)" in out
        assert "scenarios    : 2" in out

    def test_merge_conflict_exits(self, tmp_path, capsys):
        import json as _json

        a = self._shard(tmp_path, "a.jsonl", "crash")
        records = [_json.loads(l) for l in a.read_text().splitlines()]
        records[0]["messages_sent"] += 1
        b = tmp_path / "b.jsonl"
        b.write_text("".join(_json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        with pytest.raises(SystemExit, match="disagree"):
            main(["merge", str(a), str(b)])
        assert main(["merge", str(a), str(b), "--on-conflict", "first"]) == 0

    def test_merge_group_by_breakdown(self, tmp_path, capsys):
        a = self._shard(tmp_path, "a.jsonl", "crash")
        b = self._shard(tmp_path, "b.jsonl", "two_faced:evil")
        capsys.readouterr()
        assert main(["merge", str(a), str(b), "--group-by", "adversary"]) == 0
        out = capsys.readouterr().out
        assert "adversary=crash" in out
        assert "adversary=two_faced:evil" in out
        assert "group" in out  # the breakdown table header

    def test_merge_group_by_unknown_axis_rejected(self, tmp_path):
        a = self._shard(tmp_path, "a.jsonl", "crash")
        with pytest.raises(SystemExit, match="unknown axis"):
            main(["merge", str(a), "--group-by", "wizardry"])

    def test_merge_missing_shard_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="missing shard"):
            main(["merge", str(tmp_path / "nope.jsonl")])

    def test_merge_schema_invalid_record_exits_cleanly(self, tmp_path):
        # Valid JSON but not a sweep record: a clean error naming the
        # file and line, not a KeyError traceback.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"foo": 1}\n', encoding="utf-8")
        with pytest.raises(SystemExit, match=r"bad\.jsonl:1.*invalid"):
            main(["merge", str(bad)])


class TestAxisFlag:
    def test_axis_grids_k(self, capsys):
        code = main([
            "sweep", "--grid", "7:2", "--seeds", "1", "--axis", "k=0,1,2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided      : 3/3 seeds" in out
        assert "k1" in out and "k2" in out

    def test_axis_grids_faults_and_placement(self, capsys):
        code = main([
            "sweep", "--grid", "7:2", "--seeds", "1",
            "--axis", "faults=0,2", "--axis", "placement=tail,head",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # f0 cells collapse across placements (no faults to place is
        # still two distinct cells by identity but same label set);
        # the f2 cells split by placement.
        assert "/f2\n" in out or "/f2 " in out
        assert "place=head" in out

    def test_axis_list_prints_vocabulary_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--axis", "list"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "placement" in out and "proposals" in out and "size" in out

    def test_unknown_axis_rejected(self):
        with pytest.raises(SystemExit, match="unknown axis"):
            main(["sweep", "--axis", "wormhole=1", "--seeds", "1"])

    def test_bad_axis_value_rejected(self):
        with pytest.raises(SystemExit, match="bad value"):
            main(["sweep", "--axis", "k=banana", "--seeds", "1"])

    def test_bad_axis_syntax_rejected(self):
        with pytest.raises(SystemExit, match="expected NAME="):
            main(["sweep", "--axis", "k", "--seeds", "1"])

    def test_group_by_prints_breakdown(self, capsys):
        code = main([
            "sweep", "--grid", "7:2", "--seeds", "1", "--axis", "k=0,1",
            "--group-by", "k",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "k=0" in out and "k=1" in out
        assert "group" in out

    def test_group_by_unknown_axis_rejected(self):
        with pytest.raises(SystemExit, match="unknown axis"):
            main([
                "sweep", "--seeds", "1", "--group-by", "wormhole",
            ])


class TestShardFlag:
    def test_shards_partition_and_merge_bit_identical(self, tmp_path, capsys):
        base = [
            "sweep", "--grid", "4:1", "--adversaries", "crash,two_faced:evil",
            "--seeds", "2",
        ]
        full = tmp_path / "full.jsonl"
        assert main(base + ["--jsonl", str(full)]) == 0
        shard_paths = []
        for i in (1, 2):
            path = tmp_path / f"shard{i}.jsonl"
            assert main(base + ["--shard", f"{i}/2", "--jsonl", str(path)]) == 0
            shard_paths.append(path)
        out = capsys.readouterr().out
        assert "shard        : 1/2 -> 2 of 4 scenarios" in out
        merged = tmp_path / "merged.jsonl"
        reference = tmp_path / "reference.jsonl"
        assert main(["merge", str(full), "--out", str(reference)]) == 0
        assert main([
            "merge", *map(str, shard_paths), "--out", str(merged),
        ]) == 0
        assert merged.read_bytes() == reference.read_bytes()

    def test_bad_shard_rejected(self):
        with pytest.raises(SystemExit, match="bad --shard"):
            main(["sweep", "--seeds", "1", "--shard", "3"])
        with pytest.raises(SystemExit, match="bad --shard"):
            main(["sweep", "--seeds", "1", "--shard", "5/2"])

    def test_shard_works_with_cache(self, tmp_path, capsys):
        base = [
            "sweep", "--grid", "4:1", "--seeds", "2",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(base + ["--shard", "1/2"]) == 0
        assert main(base + ["--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "1 hit(s), 0 executed" in out
