"""Run with ``python -m pytest bench/tests -q`` from the repo root (these
tests are the benchmark's own and not part of the tier-1 suite)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
