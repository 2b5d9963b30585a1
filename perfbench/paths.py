"""Locations inside the checkout the benchmark runs from."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references"
OUT = BENCH_DIR / "out"


def use_checkout_src() -> None:
    """Import ``qfock`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "qfock" / "__init__.py").is_file():
        raise SystemExit(f"error: no qfock sources under {SRC}; run the benchmark "
                         "from the root of a qfock checkout")
    sys.path.insert(0, str(SRC))
