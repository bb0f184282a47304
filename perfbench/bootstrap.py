"""Locate the checkout and import atxxz from its own ``src/`` tree only."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def import_atxxz():
    """Import the package under test; exit nonzero if the sources are absent.

    An installed copy elsewhere must never stand in for the checkout's code,
    so the imported module's location is checked as well.
    """
    if not (SRC / "atxxz" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no atxxz sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    atxxz = importlib.import_module("atxxz")
    if Path(atxxz.__file__).resolve().parent != SRC / "atxxz":
        raise SystemExit(f"perfbench: imported atxxz from {atxxz.__file__}, "
                         f"not from {SRC}")
    return atxxz
