"""Set-up time in a fresh interpreter: import hamcheck, parse every file
given on the command line and build its RunContext (system
normalisation and passivity check).  Prints the seconds taken.

    python3 bench/setup_child.py FILE...
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hamcheck.parser import parse_program  # noqa: E402
from hamcheck.runner import RunContext  # noqa: E402

for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        RunContext(parse_program(fh.read().decode("utf-8")))
print(time.perf_counter() - t0)
