"""``python -m stefa``: run the command-line interface of :mod:`stefa.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
