"""``python -m pairtune``: the same command-line interface as ``pairtune``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
