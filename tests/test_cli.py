"""Tests for the command-line driver."""

import os

import pytest

from repro.cli import main

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""

MISS = r"""
(\procdecl f ((p (\ref long))) long
  (:= (\res (+ (\miss (\deref p)) 1))))
"""

BAD_SYNTAX = r"(\procdecl f ((a long)) long"

LOOPY = r"""
(\procdecl count ((i long) (n long)) long
  (\semi
    (\do (-> (< i n) (:= (i (+ i 1)))))
    (:= (\res i))))
"""


@pytest.fixture
def source_file(tmp_path):
    def write(text, name="prog.dn"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestCli:
    def test_compiles_simple_program(self, source_file, capsys):
        status = main([source_file(SIMPLE)])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "verified=True" in out

    def test_quiet_mode(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--quiet"])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "===" not in out

    def test_retarget_itanium(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--arch", "itanium"])
        out = capsys.readouterr().out
        assert status == 0
        assert "shladd4" in out

    def test_single_issue_arch(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--arch", "simple"])
        assert status == 0
        assert "P0" in capsys.readouterr().out

    def test_loop_program_emits_two_gmas(self, source_file, capsys):
        status = main([source_file(LOOPY), "--strategy", "linear"])
        out = capsys.readouterr().out
        assert status == 0
        assert "count_loop0" in out
        assert "count_tail" in out

    def test_proc_selector(self, source_file, capsys):
        two = SIMPLE + r"(\procdecl other ((b long)) long (:= (\res b)))"
        status = main([source_file(two), "--proc", "scale"])
        out = capsys.readouterr().out
        assert status == 0
        assert "scale_tail" in out
        assert "other" not in out

    def test_unknown_proc_errors(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--proc", "nope"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        status = main(["/nonexistent/prog.dn"])
        assert status == 2

    def test_parse_error_reported(self, source_file, capsys):
        status = main([source_file(BAD_SYNTAX)])
        assert status == 2
        assert "parse error" in capsys.readouterr().err

    def test_budget_too_small_reports_floor(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--max-cycles", "1",
                       "--min-cycles", "1", "--max-rounds", "1",
                       "--max-enodes", "50", "--no-verify"])
        # With saturation crippled the one-instruction form may be missed,
        # but whatever happens the driver must not crash.
        assert status in (0, 1)

    def test_miss_annotation_respected(self, source_file, capsys):
        status = main(
            [source_file(MISS), "--miss-latency", "9", "--max-cycles", "12"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "10 cycles" in out  # ld (9) + add (1)

    def test_dimacs_dump(self, source_file, tmp_path, capsys):
        out_dir = str(tmp_path / "cnf")
        status = main([source_file(SIMPLE), "--dimacs", out_dir])
        assert status == 0
        files = os.listdir(out_dir)
        assert files
        text = open(os.path.join(out_dir, files[0])).read()
        assert text.startswith("c Denali probe")
        assert "p cnf" in text

    def test_dimacs_roundtrips_through_solver(self, source_file, tmp_path, capsys):
        """The dumped CNF is solvable by any DIMACS solver — demonstrated
        with our own, as the paper swapped CHAFF in and out."""
        from repro.sat import CdclSolver, from_dimacs

        out_dir = str(tmp_path / "cnf")
        main([source_file(SIMPLE), "--dimacs", out_dir])
        for name in os.listdir(out_dir):
            cnf = from_dimacs(open(os.path.join(out_dir, name)).read())
            result = CdclSolver().solve(cnf)
            assert result.satisfiable is not None


class TestWholeProcedure:
    def test_whole_flag_emits_stitched_program(self, source_file, capsys):
        status = main([source_file(LOOPY), "--whole"])
        out = capsys.readouterr().out
        assert status == 0
        assert "count_loop0:" in out
        assert "beq" in out
        assert "br count_loop0" in out
        assert ".end count" in out
        assert "all GMAs verified: True" in out

    def test_whole_straight_line(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--whole", "--quiet"])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "ret" in out


class TestListAxioms:
    def test_lists_corpus(self, capsys):
        status = main(["--list-axioms"])
        out = capsys.readouterr().out
        assert status == 0
        assert "mathematical axioms" in out
        assert "Alpha architectural axioms" in out
        assert "(forall" in out

    def test_source_required_otherwise(self, capsys):
        status = main([])
        assert status == 2
        assert "source file is required" in capsys.readouterr().err


class TestExitCodes:
    def test_version_flag(self, capsys):
        from repro import __version__

        status = main(["--version"])
        assert status == 0
        assert "repro %s" % __version__ in capsys.readouterr().out

    def test_version_flag_on_verbs(self, capsys):
        assert main(["serve", "--version"]) == 0
        assert main(["batch", "--version"]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "superoptimizing" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        status = main(["--no-such-flag"])
        assert status == 2

    def test_keyboard_interrupt_exits_130(self, source_file, capsys,
                                          monkeypatch):
        import repro.cli as cli

        def boom(_source):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_program", boom)
        status = main([source_file(SIMPLE)])
        assert status == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err


class TestStatsJson:
    def test_report_schema(self, source_file, tmp_path, capsys):
        import json

        path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        assert report["arch"] == "ev6"
        assert report["strategy"] == "binary"
        assert report["gmas"], "one record per compiled GMA"
        gma = report["gmas"][0]
        assert {"label", "timings", "probes", "cache"} <= set(gma)
        totals = report["totals"]
        assert totals["sessions"] == len(report["gmas"])
        assert totals["probes"] >= 1
        assert "saturation" in totals["timings"]
        assert {"saturation", "axiom_corpus"} <= set(report["global_caches"])

    def test_saturation_block_reports_matcher_counters(
        self, source_file, tmp_path, capsys
    ):
        import json

        path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        sat = report["gmas"][0]["saturation"]
        assert sat["incremental"] is True
        assert {"matches_attempted", "matches_found", "matches_pruned",
                "budget_hits", "per_axiom", "phase_seconds"} <= set(sat)
        totals = report["totals"]["saturation"]
        assert totals["sessions"] == len(report["gmas"])
        assert "budget_hits" in totals

    def test_no_incremental_match_flag(self, source_file, tmp_path, capsys):
        import json

        path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet",
                       "--no-incremental-match", "--stats-json", path])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out  # the naive path emits the same optimum
        report = json.load(open(path))
        assert report["gmas"][0]["saturation"]["incremental"] is False

    def test_unwritable_path_fails(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--quiet",
                       "--stats-json", "/nonexistent/dir/stats.json"])
        assert status == 1
        assert "error writing" in capsys.readouterr().err


class TestServiceVerbs:
    def test_batch_local_round_trip(self, source_file, capsys):
        status = main(["batch", source_file(SIMPLE), "--workers", "1",
                       "--strategy", "linear", "--max-cycles", "10"])
        captured = capsys.readouterr()
        assert status == 0
        assert "s4addq" in captured.out
        assert "batch:" in captured.err  # throughput summary line

    def test_batch_repeat_coalesces(self, source_file, capsys, tmp_path):
        import json

        metrics_path = str(tmp_path / "metrics.json")
        status = main(["batch", source_file(SIMPLE), "--workers", "1",
                       "--strategy", "linear", "--max-cycles", "10",
                       "--repeat", "3", "--quiet",
                       "--metrics-json", metrics_path])
        assert status == 0
        metrics = json.load(open(metrics_path))
        assert metrics["jobs"]["coalesced"] == 2
        assert metrics["throughput"]["done"] == 1

    def test_batch_missing_file_is_usage_error(self, capsys):
        status = main(["batch", "/nonexistent/prog.dn"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_batch_parse_error_fails(self, source_file, capsys):
        status = main(["batch", source_file(BAD_SYNTAX), "--workers", "1"])
        assert status == 1

    def test_batch_against_running_server(self, source_file, capsys):
        from repro.fabric import FabricNode

        node = FabricNode(workers=1)
        node.start()
        try:
            status = main(["batch", source_file(SIMPLE), "--quiet",
                           "--strategy", "linear", "--max-cycles", "10",
                           "--url", node.url])
            out = capsys.readouterr().out
            assert status == 0
            assert "s4addq" in out
        finally:
            node.stop(drain=False)

    def test_batch_unreachable_server_fails(self, source_file, capsys):
        status = main(["batch", source_file(SIMPLE),
                       "--url", "http://127.0.0.1:9"])
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_subprocess_round_trip(self, source_file, tmp_path):
        """`repro serve` on an ephemeral port answers a compile and shuts
        down cleanly on /v1/shutdown."""
        import re
        import subprocess
        import sys

        from repro.service import JobSpec, ServiceClient

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1",
             "--store", str(tmp_path / "store.sqlite")],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            assert match, banner
            client = ServiceClient(match.group(0), timeout=30.0)
            assert client.health() is True
            source = open(source_file(SIMPLE)).read()
            ids = client.submit([JobSpec(
                kind="compile", source=source, name="prog.dn",
                strategy="linear", max_cycles=10,
            )])
            wrapper = client.result(ids[0], timeout=60)
            assert "s4addq" in wrapper["result"]["units"][0]["assembly"]
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
