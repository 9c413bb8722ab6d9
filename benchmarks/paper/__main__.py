import sys

from benchmarks.paper.runner import main

sys.exit(main())
