"""``python -m pyrseiz ...``: the same command line as the ``pyrseiz`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
