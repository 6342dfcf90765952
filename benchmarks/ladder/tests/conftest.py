"""Make ``ladderbench`` (and the package under test) importable."""

import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1]
for entry in (LADDER, LADDER.parents[1] / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
