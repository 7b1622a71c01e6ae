"""``python -m cocyclelab``: the scenario runners of `cocyclelab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
