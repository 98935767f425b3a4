"""`python -m cfrank`: the same command line as the `cfrank` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
