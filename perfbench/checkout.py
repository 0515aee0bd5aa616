"""Locate the modhilb source tree of the checkout the benchmark sits in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit with an error.

    The benchmark measures the code of its own checkout, never an
    installed copy, so a checkout without src/modhilb is an error.
    """
    if not (SOURCE / "modhilb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no modhilb source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
