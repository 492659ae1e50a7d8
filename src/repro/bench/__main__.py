"""``python -m repro.bench`` — the one entry point (see :mod:`repro.bench.cli`)."""

import sys

from repro.bench.cli import main

if __name__ == "__main__":
    sys.exit(main())
