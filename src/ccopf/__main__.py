"""``python -m ccopf``: the ccopf command line from a source checkout."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
