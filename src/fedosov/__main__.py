"""python -m fedosov: the command-line interface of fedosov.cli."""

import sys

from .cli import main

sys.exit(main())
