"""`python -m sgc`: the sgc command (see io_cli)."""

import sys

from .io_cli import main

if __name__ == "__main__":
    sys.exit(main())
