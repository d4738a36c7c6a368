"""What importing ``repro`` drags in — counted in a fresh interpreter.

Every ``repro`` command, every spawned ``run_many`` worker and every
CLI test subprocess pays for the import graph before doing anything,
so it is a tracked number like the source LOC: module counts, not
seconds, so the pin holds on any host.  The children run with ``-S``
(no ``site``, hence no site-packages): the count is the standard
library's alone, and a third-party import anywhere in ``src/`` fails
here even on a machine that has the package.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``len(sys.modules)`` after ``import repro.cli, repro.service``: 614
#: while networkx was imported (PR 17), 262 measured without it on
#: CPython 3.11 (PR 18) — pinned at that plus 5%.
MODULE_CEILING = 275


def modules_after(statement: str) -> list:
    """Names in ``sys.modules`` of a fresh ``python -S`` after
    ``statement``."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
            "print('\\n'.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_and_service_import_the_standard_library_only():
    modules = modules_after("import repro.cli, repro.service")
    assert "repro.service.server" in modules
    assert not {"networkx", "numpy", "scipy"} & set(modules)
    assert len(modules) <= MODULE_CEILING, (
        f"{len(modules)} modules imported, ceiling {MODULE_CEILING}")


def test_a_serial_run_does_not_import_multiprocessing():
    modules = modules_after("import repro.experiments.runner")
    assert "repro.experiments.executor" in modules
    assert "multiprocessing" not in modules
