"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "10x10 torus" in out
        assert "Total Devices" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serial_packet" in out
        assert "4-port 3-tree" in out

    def test_discover(self, capsys):
        code = main(["discover", "--topology", "3x3 mesh",
                     "--algorithm", "parallel"])
        assert code == 0
        out = capsys.readouterr().out
        assert "devices_found        : 18" in out
        assert "database_correct" in out

    def test_discover_with_factors(self, capsys):
        main(["discover", "--topology", "3x3 mesh",
              "--fm-factor", "4", "--device-factor", "0.5"])
        fast = capsys.readouterr().out
        main(["discover", "--topology", "3x3 mesh"])
        base = capsys.readouterr().out

        def extract(text):
            for line in text.splitlines():
                if "discovery_time" in line:
                    return line.split(":")[1].strip()
            raise AssertionError("no discovery_time line")

        assert extract(fast) != extract(base)

    def test_change(self, capsys):
        code = main(["change", "--topology", "3x3 mesh", "--seed", "1",
                     "--kind", "add_switch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "change                 : add_switch" in out

    def test_figure7(self, capsys):
        assert main(["figure", "7"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7(a)" in out
        assert "parallel period = T_FM" in out

    def test_figure4_quick(self, capsys):
        assert main(["figure", "4", "--quick"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_change_multiple_seeds_parallel(self, capsys):
        code = main(["change", "--topology", "3x3 mesh",
                     "--seeds", "2", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(seed 0)" in out
        assert "(seed 1)" in out

    def test_figure_jobs_matches_serial(self, capsys):
        assert main(["figure", "4", "--quick", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["figure", "4", "--quick", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert parallel == serial

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["discover", "--topology", "17x17 hypermesh"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


#: Each out-of-range input a command once ran on — with a traceback,
#: after the run, or on a silently substituted value — and the flag
#: its usage error must name.
BAD_INPUTS = [
    (["load", "--load", "1.5"], "--load"),
    (["load", "--load", "-0.1"], "--load"),
    (["load", "--seeds", "0"], "--seeds"),
    (["load", "--seeds", "-3"], "--seeds"),
    (["load", "--jobs", "0"], "--jobs"),
    (["reliability", "--ber", "2"], "--ber"),
    (["failover", "--heartbeat", "-1"], "--heartbeat"),
    (["failover", "--miss-threshold", "0"], "--miss-threshold"),
    (["discover", "--fm-factor", "0"], "--fm-factor"),
    (["discover", "--device-factor", "-1"], "--device-factor"),
    (["churn", "--faults", "-2"], "--faults"),
    (["fuzz", "--runs", "-1"], "--runs"),
    (["trace", "--out", "/nonexistent/x.json"], "--out"),
]


@pytest.mark.parametrize("argv, flag", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_out_of_range_input_is_a_usage_error(argv, flag, capsys):
    """Refused at parse time: exit 2, an ``error:`` naming the flag,
    nothing run and nothing printed to stdout."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestFuzzCli:
    def test_fuzz_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--runs", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "4 scenario(s)" in out
        assert "0 failure(s)" in out

    def test_fuzz_injected_failure_exits_one_and_writes_corpus(
            self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--runs", "2", "--seed", "0",
                     "--inject", "bogus_cli_option=true",
                     "--corpus", str(corpus)])
        assert code == 1
        out = capsys.readouterr().out
        assert "error:TypeError" in out
        assert list(corpus.glob("*.json"))

    def test_fuzz_no_shrink_flag(self, capsys):
        code = main(["fuzz", "--runs", "1", "--seed", "0",
                     "--no-shrink", "--inject", "bogus=1"])
        assert code == 1

    def test_fuzz_bad_inject_syntax_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--runs", "1", "--inject", "not-a-pair"])

    def test_replay_checked_in_corpus(self, capsys):
        assert main(["replay", "--corpus", "tests/corpus",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_replay_empty_directory_exits_one(self, capsys, tmp_path):
        assert main(["replay", "--corpus", str(tmp_path)]) == 1
        assert "no corpus entries" in capsys.readouterr().out


class TestFailoverCli:
    def test_failover_exits_zero(self, capsys):
        code = main(["failover", "--topology", "mesh9", "--faults", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FM failover" in out
        header = out.splitlines()[1].split()
        assert header[:2] == ["manager", "runs"]

    def test_failover_with_restart_and_no_mode_flag(self, capsys):
        code = main(["failover", "--topology", "mesh9", "--faults", "0",
                     "--restart-primary"])
        out = capsys.readouterr().out
        assert code == 0
        # One takeover path: no row fell back to a rediscovery.
        row = out.splitlines()[-1].split()
        assert row[0] == "partial" and row[5] == "0"
        with pytest.raises(SystemExit) as exit_info:
            main(["failover", "--mode", "warm"])
        assert exit_info.value.code == 2
