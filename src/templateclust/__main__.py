"""`python -m templateclust`: the command line of `templateclust.cli`."""

import sys

from templateclust.cli import main

if __name__ == "__main__":
    sys.exit(main())
