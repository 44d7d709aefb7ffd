"""`python -m shoulderkin`: the same command line as the `shoulderkin` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
