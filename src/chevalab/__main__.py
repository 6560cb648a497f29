"""``python -m chevalab``: the same command line as the ``chevalab`` script."""

import sys

from .cli import main

sys.exit(main())
