"""Locate the simplexi sources of the checkout this benchmark sits in.

The benchmark runs the program from source: ``<checkout>/src`` goes first
on ``sys.path``.  A checkout without those sources is an error, never a
silent fall-back to some other installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on the import path, or exit with status 1."""
    if not (SRC / "simplexi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simplexi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import simplexi

    if Path(simplexi.__file__).resolve().parent != SRC / "simplexi":
        raise SystemExit(f"perfbench: imported simplexi from {simplexi.__file__}, not {SRC}")
