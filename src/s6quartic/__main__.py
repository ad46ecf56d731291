import sys

# What cli needs, in dependency order: imported from cli instead, each
# module would be compiled nested inside cli's import, with a higher
# memory peak.
from . import eisenstein, poly, parsing, linalg, perms, varieties, checks
from .cli import main

sys.exit(main())
