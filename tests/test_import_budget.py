"""What an entry point drags in — counted in a fresh interpreter.

Every ``repro`` command, every spawned ``run_many`` worker and every
CLI test subprocess pays for the import graph before doing anything,
so it is a tracked number like the source LOC: module counts, not
seconds, so the pin holds on any host.  The children run with ``-S``
(no ``site``, hence no site-packages): the count is the standard
library's alone, and a third-party import anywhere in ``src/`` fails
here even on a machine that has the package.

The packages that re-export are tables (``repro._surface``), so the
count depends on the entry point: each one below is pinned for what it
must *not* load as well as for how much it does.  ``python
tests/test_import_budget.py`` prints the per-entry-point table (CI
does, next to the LOC table).
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a plain discovery imports (``build_simulation`` on a named
#: topology and ``run_until_ready``).
DISCOVERY = "import repro.experiments.runner, repro.topology"
#: Everything: the CLI plus every name of the service's surface.
EVERYTHING = "import repro.cli; from repro.service import *"

#: The statements the table is printed for, cheapest first.
ENTRY_POINTS = (
    "import repro",
    "from repro.service import ServiceClient",
    "import repro.fabric.fabric, repro.sim.core",
    DISCOVERY,
    "from repro.experiments.scenario import Scenario",
    "from repro.experiments.executor import run_many",
    "from repro import *",
    "import repro.cli",
    "from repro.service import start_service",
    EVERYTHING,
)

#: ``repro.*`` modules / all modules after :data:`DISCOVERY`: 53 / 139
#: measured on CPython 3.11 (82 / 184 while ``repro/__init__.py``
#: imported every package; 59 / 143 while every switch built a
#: multicast forwarding table and capability; 56 / 142 while each
#: discovery algorithm was a module of its own).  The ``repro.*`` count
#: is the same on every CPython version, so it is pinned exactly; the
#: module count at that plus 5%, so every CI interpreter fits.
DISCOVERY_REPRO_CEILING = 53
DISCOVERY_CEILING = 146
#: What a discovery has no use for: the fuzz lab and its libcrypto
#: (``hashlib`` alone maps 3.9 MiB), result archives, the worker pool,
#: the service's event loop.
NOT_FOR_A_DISCOVERY = {
    "hashlib", "pathlib", "json", "traceback", "multiprocessing",
    "asyncio", "repro.experiments.fuzz", "repro.experiments.executor",
    "repro.experiments.io", "repro.experiments.shrink",
}

#: ``len(sys.modules)`` after :data:`EVERYTHING`: 614 while networkx
#: was imported, 262 without it, 241 once ``import repro.cli`` stopped
#: short of the fuzz lab, 233 (227 on 3.10, 234 on 3.12) while the
#: service's front-end ran on asyncio, 192 measured on CPython 3.11
#: now that it runs on ``selectors`` — pinned at that plus 5%, so
#: every CI interpreter fits.
MODULE_CEILING = 201

#: What no entry point and no running service loads: the front-end is
#: a selector loop and speaks no TLS (asyncio alone loads ``ssl``,
#: which maps 4.7 MiB).
NOT_FOR_ANYONE = {"asyncio", "ssl", "_ssl"}


def fresh_interpreter(statement: str, then: str) -> str:
    """Output of ``statement; then`` in a fresh ``python -S -E``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; {then}"
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(statement: str) -> list:
    """Names in ``sys.modules`` of a fresh ``python -S`` after
    ``statement``."""
    return fresh_interpreter(
        statement, "print('\\n'.join(sys.modules))").split()


def peak_mib_after(statement: str) -> float:
    """Peak RSS of that interpreter (Linux).  ``VmHWM`` starts at zero
    on ``exec``; ``ru_maxrss`` would start at this process's size."""
    return int(fresh_interpreter(
        statement, "print(open('/proc/self/status').read()"
                   ".split('VmHWM:')[1].split()[0])")) / 1024


def ours(modules) -> list:
    return [name for name in modules if name.split(".")[0] == "repro"]


def test_cli_and_service_import_the_standard_library_only():
    modules = modules_after(EVERYTHING)
    assert "repro.service.server" in modules
    assert not {"networkx", "numpy", "scipy"} & set(modules)
    assert len(modules) <= MODULE_CEILING, (
        f"{len(modules)} modules imported, ceiling {MODULE_CEILING}")


def test_a_serial_run_does_not_import_multiprocessing():
    # PR 24 inverts the pin that stood here ("repro.experiments.
    # executor" in modules): importing the runner used to run
    # ``experiments/__init__.py`` and with it the executor, the fuzz
    # lab and the other families; now it must not.
    modules = modules_after(DISCOVERY)
    assert not NOT_FOR_A_DISCOVERY & set(modules)
    assert len(ours(modules)) <= DISCOVERY_REPRO_CEILING, ours(modules)
    assert len(modules) <= DISCOVERY_CEILING, (
        f"{len(modules)} modules imported, ceiling {DISCOVERY_CEILING}")


def test_the_fabric_model_imports_no_manager_and_no_lab():
    modules = modules_after("import repro.fabric.fabric, repro.sim.core")
    assert not [name for name in ours(modules) if name.startswith(
        ("repro.manager", "repro.experiments", "repro.service"))]


def test_importing_a_package_loads_none_of_its_modules():
    modules = ours(modules_after(
        "import repro, repro.experiments, repro.manager, repro.obs, "
        "repro.workloads, repro.analysis, repro.service"))
    assert sorted(modules) == [
        "repro", "repro.analysis", "repro.experiments", "repro.manager",
        "repro.obs", "repro.service", "repro.workloads"]


def test_no_entry_point_loads_asyncio_or_ssl():
    for statement in ENTRY_POINTS:
        assert not NOT_FOR_ANYONE & set(modules_after(statement)), statement


#: A service answering every kind of request, then stopped.
SERVICE_SESSION = """
import time
from repro.service import start_service
from repro.service.api import READS
handle = start_service("mesh9")
client = handle.client()
client.request("ping")
while client.request("status")["discoveries"] < 1:
    time.sleep(0.01)
dsns = [device["dsn"] for device in client.request("topology")["devices"]
        if device["type"] == "endpoint"]
for op in sorted(READS):
    client.request(op, **({"src": dsns[0], "dst": dsns[-1]}
                          if op == "path" else {}))
client.request("topologies", describe="mesh9")
client.subscribe()
client.request("remove_device", name="sw_1_1")
assert client.next_event(timeout=30)["event"] == "mutation"
client.close()
handle.stop()
"""


def test_a_running_service_loads_no_asyncio_or_ssl():
    """A lazy import on a rarer path than an import shows here."""
    modules = modules_after(f"exec({SERVICE_SESSION!r})")
    assert "repro.service.server" in modules
    assert not NOT_FOR_ANYONE & set(modules)


def test_a_sweep_loads_the_pool_and_a_family_when_it_uses_them():
    modules = modules_after(
        "from repro.experiments.executor import run_many; "
        "from repro.experiments.scenario import Scenario; "
        "run_many([Scenario(kind='load', topology='3x3 mesh')])")
    assert "multiprocessing" not in modules and "traceback" not in modules
    assert "repro.experiments.load" in modules
    assert not {"repro.experiments.churn", "repro.experiments.failover",
                "repro.experiments.reliability"} & set(modules)


if __name__ == "__main__":
    print(f"{'entry point':50s} {'repro.*':>8s} {'modules':>8s} "
          f"{'MiB':>6s}")
    for entry_point in ENTRY_POINTS:
        names = modules_after(entry_point)
        print(f"{entry_point:50s} {len(ours(names)):8d} {len(names):8d} "
              f"{peak_mib_after(entry_point):6.1f}")
    print(f"ceilings: discovery {DISCOVERY_REPRO_CEILING} repro.* / "
          f"{DISCOVERY_CEILING} modules, everything {MODULE_CEILING}")
