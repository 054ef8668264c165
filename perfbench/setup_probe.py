"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a user pays before the first simulated slot: importing
photondemux and its command line, loading and validating the
workload's scenario file, and applying the seed.  Interpreter start-up
itself is not counted.
"""

import sys
import time

t0 = time.perf_counter()
import srcpath  # noqa: E402

srcpath.use_checkout_sources()
import photondemux.cli  # noqa: E402,F401  (the command line's own import is part of set-up)
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
