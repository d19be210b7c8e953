"""`python -m okladder`: the okladder command line."""

import sys

from .cli import main

sys.exit(main())
