"""`python -m superybe`: the same command line as the `superybe` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
