"""`python -m subheat <command> --config <path>` runs `subheat.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
