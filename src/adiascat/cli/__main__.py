"""``python -m adiascat.cli``, the same runner as the ``adiascat`` command."""

import sys

from . import main

sys.exit(main())
