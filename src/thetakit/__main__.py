"""`python -m thetakit`: the same command line as the `thetakit` script."""

import sys

from .cli import main

sys.exit(main())
