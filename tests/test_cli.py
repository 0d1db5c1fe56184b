"""Tests for the command-line interface."""

from __future__ import annotations

import json
import socket

import pytest
from oracles import journal_events

from test_dispatch import worker_daemon

from repro.campaign import read_journal
from repro.campaign.spec import TRIAL_SCHEMA_VERSION, stable_hash
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rearrange", "--algorithm", "bogus"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])


class TestCommands:
    def test_rearrange_default(self, capsys):
        assert main(["rearrange", "--size", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "qrm" in out
        assert "moves" in out

    def test_rearrange_render_and_fpga(self, capsys):
        code = main(["rearrange", "--size", "12", "--seed", "3", "--render", "--fpga"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "●" in out

    def test_rearrange_baseline(self, capsys):
        assert main(
            ["rearrange", "--size", "12", "--seed", "3", "--algorithm", "tetris"]
        ) == 0
        assert "tetris" in capsys.readouterr().out

    def test_figure_8(self, capsys):
        assert main(["figure", "8"]) == 0
        assert "Fig 8" in capsys.readouterr().out

    def test_figure_headline(self, capsys):
        assert main(["figure", "headline"]) == 0
        assert "claim" in capsys.readouterr().out

    def test_figure_workflow(self, capsys):
        assert main(["figure", "workflow"]) == 0
        assert "architecture" in capsys.readouterr().out

    def test_resources(self, capsys):
        assert main(["resources", "--size", "30"]) == 0
        assert "utilisation" in capsys.readouterr().out

    def test_trace(self, capsys):
        assert main(["trace", "--size", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycle 3" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "qrm" in out
        assert "tetris" in out

    def test_feasibility(self, capsys):
        assert main(["feasibility", "--size", "20", "--fill", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "predicted target fill" in out
        assert "99.9%" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "--size", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "merged" in out

    def test_figure_loss(self, capsys):
        assert main(["figure", "loss", "--trials", "1"]) == 0
        assert "atom loss" in capsys.readouterr().out

    def test_campaign(self, capsys, tmp_path):
        csv_path = tmp_path / "campaign.csv"
        assert main(
            [
                "campaign",
                "--name",
                "clitest",
                "--algorithms",
                "qrm",
                "tetris",
                "--sizes",
                "10",
                "--fills",
                "0.5",
                "--seeds",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--csv",
                str(csv_path),
                "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Campaign 'clitest'" in out
        assert "[0/4 trials from cache" in out
        assert csv_path.exists()
        # Second invocation is served entirely from the cache.
        assert main(
            [
                "campaign",
                "--name",
                "clitest",
                "--algorithms",
                "qrm",
                "tetris",
                "--sizes",
                "10",
                "--fills",
                "0.5",
                "--seeds",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ]
        ) == 0
        assert "[4/4 trials from cache" in capsys.readouterr().out

    def test_campaign_pool_matches_serial(self, capsys, tmp_path):
        base = [
            "campaign",
            "--name",
            "pool-cli",
            "--algorithms",
            "qrm",
            "--sizes",
            "10",
            "--fills",
            "0.5",
            "--seeds",
            "4",
            "--no-cache",
            "--quiet",
        ]
        serial_csv = tmp_path / "serial.csv"
        fanned_csv = tmp_path / "pool.csv"
        assert main(base + ["--csv", str(serial_csv)]) == 0
        assert main(base + ["--workers", "2", "--csv", str(fanned_csv)]) == 0
        capsys.readouterr()
        assert serial_csv.read_bytes() == fanned_csv.read_bytes()

    def test_campaign_batched_pool_matches_serial(self, capsys, tmp_path):
        # 3 seeds per cell at batch size 5: every unit is cut at a cell
        # boundary, and the pool receives 4 units of 3 trials.
        base = [
            "campaign",
            "--name",
            "batched-pool-cli",
            "--algorithms",
            "qrm",
            "tetris",
            "--sizes",
            "8",
            "10",
            "--fills",
            "0.5",
            "--seeds",
            "3",
            "--no-cache",
            "--quiet",
        ]
        serial_csv = tmp_path / "serial.csv"
        batched_csv = tmp_path / "batched-pool.csv"
        assert main(base + ["--csv", str(serial_csv)]) == 0
        argv = ["--workers", "2", "--batch-size", "5", "--csv", str(batched_csv)]
        assert main(base + argv) == 0
        capsys.readouterr()
        assert serial_csv.read_bytes() == batched_csv.read_bytes()

    @pytest.mark.parametrize("kind", ["async", "serial"])
    def test_campaign_removed_executor_kinds_rejected(self, capsys, kind):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--executor", kind, "--workers", "2", "--quiet"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --executor" in capsys.readouterr().err

    def test_campaign_chunksize_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--workers", "2", "--chunksize", "5", "--quiet"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --chunksize" in capsys.readouterr().err

    def test_campaign_negative_workers_rejected(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        argv = ["campaign", "--sizes", "8", "--seeds", "1", "--workers", "-1"]
        argv += ["--journal", str(journal), "--no-cache", "--quiet"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --workers ")
        assert not journal.exists()

    @pytest.mark.parametrize("workers", [",", "  "], ids=["comma", "blank"])
    def test_campaign_workers_needs_count_or_endpoints(
        self, capsys, tmp_path, workers
    ):
        # Neither a count nor a daemon: the error names both forms
        # --workers takes, and says so before any file is written.
        journal = tmp_path / "run.jsonl"
        argv = ["campaign", "--sizes", "10", "--seeds", "1", "--workers", workers]
        argv += ["--journal", str(journal), "--no-cache"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--workers N" in err
        assert "--workers host:port[,host:port...]" in err
        assert not journal.exists()

    def test_campaign_worker_port_out_of_range(self, capsys):
        argv = ["campaign", "--workers", "127.0.0.1:99999", "--sizes", "10"]
        argv += ["--seeds", "1", "--no-cache", "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: port 99999 out of range")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rearrange", "--size", "12", "--mask", "sparse:sites=a-b"],
            ["rearrange", "--size", "12", "--mask", "sparse:sites=1-2-3"],
            ["campaign", "--sizes", "12", "--mask", "sparse:sites=x-1"],
            ["campaign", "--sizes", "12", "--mask", "ring:outer"],
            ["campaign", "--sizes", "12", "--mask", "sparse:sites="],
            ["campaign", "--sizes", "12", "--mask", "triangular:pitch=0"],
        ],
        ids=[
            "site-not-a-number",
            "site-of-three-numbers",
            "campaign-site-not-a-number",
            "parameter-without-value",
            "no-sites",
            "zero-pitch",
        ],
    )
    def test_a_malformed_mask_is_one_error_line(self, capsys, argv):
        if argv[0] == "campaign":
            argv = argv + ["--no-cache", "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_serve_port_out_of_range(self, capsys, port):
        assert main(["serve", "--port", port, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: port must be in 0..65535")
        assert err.rstrip().endswith(f"got {port}")

    def test_campaign_distributed_executor_matches_serial(self, capsys, tmp_path):
        base = [
            "campaign",
            "--name",
            "dist-cli",
            "--algorithms",
            "qrm",
            "--sizes",
            "10",
            "--fills",
            "0.5",
            "--seeds",
            "3",
            "--no-cache",
            "--quiet",
        ]
        serial_csv = tmp_path / "serial.csv"
        fanned_csv = tmp_path / "distributed.csv"
        assert main(base + ["--csv", str(serial_csv)]) == 0
        with worker_daemon() as (_, spec_a), worker_daemon() as (_, spec_b):
            endpoints = f"{spec_a.host}:{spec_a.port},{spec_b.host}:{spec_b.port}"
            argv = ["--workers", endpoints, "--csv", str(fanned_csv)]
            assert main(base + argv) == 0
        capsys.readouterr()
        assert serial_csv.read_bytes() == fanned_csv.read_bytes()

    def test_worker_needs_listen(self, capsys):
        assert main(["worker"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--listen HOST:PORT" in err
        assert "--workers N" in err

    @pytest.mark.parametrize("command", ["worker", "serve"])
    def test_daemon_on_a_busy_port_is_an_error(self, capsys, command):
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            argv = {
                "worker": ["worker", "--listen", f"127.0.0.1:{port}"],
                "serve": ["serve", "--host", "127.0.0.1", "--port", str(port)],
            }[command]
            assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert len(err.splitlines()) == 1

    def test_worker_listen_banner_and_exit(self, capsys):
        argv = ["worker", "--listen", "127.0.0.1:0", "--max-connections", "0"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "listening on 127.0.0.1:" in err

    def test_campaign_interrupt_then_resume(self, capsys, tmp_path):
        base = [
            "campaign",
            "--name",
            "resume-cli",
            "--algorithms",
            "qrm",
            "--sizes",
            "8",
            "--fills",
            "0.5",
            "--seeds",
            "6",
            "--no-cache",
            "--quiet",
        ]
        clean_csv = tmp_path / "clean.csv"
        assert main(base + ["--csv", str(clean_csv)]) == 0

        journal = tmp_path / "run.jsonl"
        code = main(base + ["--journal", str(journal), "--interrupt-after", "2"])
        assert code == 130
        err = capsys.readouterr().err
        assert f"--resume {journal}" in err

        resumed_csv = tmp_path / "resumed.csv"
        assert main(
            [
                "campaign",
                "--resume",
                str(journal),
                "--no-cache",
                "--csv",
                str(resumed_csv),
                "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 replayed from journal" in out
        assert clean_csv.read_bytes() == resumed_csv.read_bytes()

    def test_resume_refuses_a_lossy_journal_of_the_old_loss_stream(
        self, capsys, tmp_path
    ):
        # A lossy journal started before the loss stream changed records
        # the spec hash without the stream version.  Its trials were drawn
        # from the old stream, so resuming it must refuse, not mix streams.
        journal = tmp_path / "run.jsonl"
        base = ["campaign", "--name", "old-stream", "--sizes", "8", "--seeds", "4"]
        argv = base + ["--loss", "--no-cache", "--quiet", "--journal", str(journal)]
        assert main(argv + ["--interrupt-after", "2"]) == 130
        spec = read_journal(journal).spec
        old_hash = stable_hash({**spec.to_dict(), "version": TRIAL_SCHEMA_VERSION})
        old_hash = old_hash[:16]
        assert old_hash != spec.spec_hash()
        journal.write_text(journal.read_text().replace(spec.spec_hash(), old_hash))
        capsys.readouterr()
        resume = ["campaign", "--resume", str(journal), "--no-cache", "--quiet"]
        assert main(resume) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"records spec {old_hash}" in err

    def test_pooled_campaign_interrupt_then_resume(self, capsys, tmp_path):
        # The interrupt lands while the pool still has trials in flight;
        # shutting it down must leave a journal that resumes (pooled
        # again) to the uninterrupted CSV byte for byte.
        base = [
            "campaign",
            "--name",
            "pool-resume-cli",
            "--algorithms",
            "qrm",
            "psca",
            "--sizes",
            "8",
            "10",
            "--fills",
            "0.5",
            "--seeds",
            "6",
            "--no-cache",
            "--quiet",
        ]
        clean_csv = tmp_path / "clean.csv"
        assert main(base + ["--csv", str(clean_csv)]) == 0

        journal = tmp_path / "run.jsonl"
        code = main(
            base
            + ["--workers", "2", "--journal", str(journal), "--interrupt-after", "5"]
        )
        assert code == 130
        capsys.readouterr()
        replay = read_journal(journal)
        assert len(replay.results) == 5
        assert journal_events(journal)[-1] != "campaign_completed"

        resumed_csv = tmp_path / "resumed.csv"
        resume = ["campaign", "--resume", str(journal), "--no-cache", "--quiet"]
        assert main(resume + ["--workers", "2", "--csv", str(resumed_csv)]) == 0
        assert "5 replayed from journal" in capsys.readouterr().out
        assert clean_csv.read_bytes() == resumed_csv.read_bytes()
        assert journal_events(journal)[-1] == "campaign_completed"

    def test_campaign_interrupt_without_journal(self, capsys):
        # No --journal: the interrupt still exits with the conventional
        # SIGINT code 130, and the message says explicitly that nothing
        # was recorded to resume from.
        code = main(
            [
                "campaign",
                "--name",
                "no-journal",
                "--algorithms",
                "qrm",
                "--sizes",
                "8",
                "--fills",
                "0.5",
                "--seeds",
                "6",
                "--no-cache",
                "--quiet",
                "--interrupt-after",
                "2",
            ]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "no journal was recorded" in err
        assert "partial progress is discarded" in err
        assert "--journal" in err

    def test_campaign_resume_flag_conflicts(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert main(["campaign", "--resume", str(journal), "--spec", "x.json"]) == 2
        assert main(
            ["campaign", "--resume", str(journal), "--journal", str(journal)]
        ) == 2
        # Missing journal file is a clean usage error, not a traceback.
        assert main(["campaign", "--resume", str(journal)]) == 2
        capsys.readouterr()

    def test_campaign_spec_file_round_trip(self, capsys, tmp_path):
        assert main(
            [
                "campaign",
                "--name",
                "fromfile",
                "--sizes",
                "10",
                "--seeds",
                "1",
                "--dump-spec",
            ]
        ) == 0
        spec_json = capsys.readouterr().out
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_json)
        assert main(
            ["campaign", "--spec", str(spec_path), "--no-cache", "--quiet"]
        ) == 0
        assert "Campaign 'fromfile'" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fields",
        [
            {"sizes": "ab"},
            {"loss_models": [{"vacuum_lifetime_s": -1}]},
            {
                "extra_cells": [
                    {"algorithm": "qrm", "size": 8, "qrm": {"scan_mode": "sideways"}}
                ]
            },
            {"masks": [{"kind": "ring", "params": {"outer": "x"}}]},
            {"targets": [12]},
            {"sizes": [7]},
            {"targets": [3]},
            {"sizes": [2]},
        ],
        ids=[
            "sizes-a-string",
            "negative-vacuum-lifetime",
            "sideways-scan-mode",
            "ring-radius-a-string",
            "target-over-size",
            "odd-size",
            "odd-target",
            "size-too-small-for-a-target",
        ],
    )
    def test_campaign_refuses_a_bad_spec_file_at_load(self, capsys, tmp_path, fields):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"name": "bad", "sizes": [8], "n_seeds": 1, **fields})
        )
        journal = tmp_path / "run.jsonl"
        code = main(
            [
                "campaign",
                "--spec",
                str(spec_path),
                "--journal",
                str(journal),
                "--no-cache",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"error: invalid spec file {spec_path}: ")
        # Refused before the journal opens or any trial runs.
        assert not journal.exists()
        assert captured.out == ""
