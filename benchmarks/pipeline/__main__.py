"""``python -m benchmarks.pipeline`` — see ``run.py``."""

import sys

from benchmarks.pipeline.run import main

sys.exit(main())
