"""Path set-up: ``perf/`` modules and the program under ``src/``."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
