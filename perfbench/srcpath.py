"""Locate the photondemux sources of the checkout the benchmark runs in."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on the import path, or exit with status 1.

    The benchmark measures the code beside it, never an installed copy, so
    a directory without the package sources is an error.
    """
    if not (SRC / "photondemux" / "__init__.py").is_file():
        sys.exit(f"perfbench: no photondemux sources under {SRC}")
    sys.path.insert(0, str(SRC))
