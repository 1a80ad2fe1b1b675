"""Put the benchmark modules and the package sources on the import path."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
