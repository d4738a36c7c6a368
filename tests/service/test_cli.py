"""CLI tests for ``repro serve``, ``repro topology``, and the
graceful-interrupt behaviour of the long-running commands."""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestTopologyCommand:
    def test_list_all(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "3x3 mesh  (alias: mesh9)" in out
        assert "Generator families" in out
        assert "dragonfly-k{K}m{M}" in out

    def test_describe_alias(self, capsys):
        assert main(["topology", "mesh64"]) == 0
        out = capsys.readouterr().out
        assert "devices   : 128" in out
        assert "switches  : 64" in out
        assert "canonical : 8x8 mesh" in out

    def test_describe_generator_spec(self, capsys):
        assert main(["topology", "dragonfly-k4m8"]) == 0
        out = capsys.readouterr().out
        assert "family    : dragonfly" in out

    def test_unknown_name_exits_one(self, capsys):
        assert main(["topology", "not-a-fabric"]) == 1
        assert "unknown topology" in capsys.readouterr().err


class TestInterruptHandling:
    def test_fuzz_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.experiments.fuzz as fuzz_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(fuzz_mod, "run_fuzz", boom)
        assert main(["fuzz", "--runs", "3"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_churn_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run_sweep", boom)
        assert main(["churn", "--topology", "mesh9",
                     "--faults", "1"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_other_commands_do_not_swallow_interrupt(self, monkeypatch):
        import repro.cli as cli_mod

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(
            cli_mod.main.__globals__, "_cmd_table1", boom)
        # table1 is not in INTERRUPTIBLE; Ctrl-C propagates as usual.
        monkeypatch.setattr(cli_mod, "_cmd_table1", boom)
        with pytest.raises(KeyboardInterrupt):
            main(["table1"])


def _spawn_serve(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--topology", "mesh9",
         "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    assert " on " in banner, f"unexpected banner: {banner!r}"
    address = banner.split(" on ")[1].split(",")[0].strip()
    host, port = address.rsplit(":", 1)
    proc.stdout.readline()  # the Ctrl-C hint line
    return proc, host, int(port)


class TestServeProcess:
    def test_sigint_graceful_exit_130(self):
        proc, host, port = _spawn_serve("--churn")
        try:
            with socket.create_connection((host, port), timeout=10) as s:
                stream = s.makefile("rwb")
                hello = json.loads(stream.readline())
                assert hello["schema"] == "repro/service/v1.2"
                stream.write(b'{"id": 1, "op": "status"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is True
            time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted: served" in output

    def test_shutdown_op_clean_exit_0(self):
        proc, host, port = _spawn_serve()
        try:
            with socket.create_connection((host, port), timeout=10) as s:
                stream = s.makefile("rwb")
                stream.readline()  # hello
                stream.write(b'{"id": 1, "op": "shutdown"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["result"]["stopping"] is True
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "shutdown: served" in output
