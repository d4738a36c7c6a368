"""``benchmarks/bench_scale.py`` fails a bad sweep point instead of
waiting for it.

The sweep measures each point in a spawned child.  It used to wait on
a queue the child fills only on success, so a point that raised (or
was killed) left the sweep blocked for good.  The script is loaded by
path, and the point runs on a daemon thread so that a regression fails
here instead of hanging the suite.
"""

import importlib.util
import sys
import threading
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_unknown_topology_raises_instead_of_hanging(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_scale", BENCHMARKS / "bench_scale.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    # The child is sent ``bench_scale._measure_point`` by name: both
    # sides must import the script as that module.
    monkeypatch.setitem(sys.modules, "bench_scale", bench)
    monkeypatch.syspath_prepend(str(BENCHMARKS))

    outcome = {}

    def point():
        try:
            outcome["result"] = bench.run_point("no-such-topology")
        except Exception as exc:  # noqa: BLE001 - the point's own error
            outcome["error"] = exc

    thread = threading.Thread(target=point, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "run_point still waiting after 60 s"
    assert "result" not in outcome
    assert isinstance(outcome["error"], ValueError)
    assert "unknown topology 'no-such-topology'" in str(outcome["error"])
