"""``python -m weakmem``: the command-line driver of ``weakmem.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
