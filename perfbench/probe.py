"""Set-up probe: import mixcons and mixcons.cli in this fresh interpreter,
then run the workload's warm-up operation.  Prints the wall times
{"import_s", "warmup_s"} and the mean calibration-kernel time around them,
"kernel_s" (see calibration.py).

Usage: PYTHONPATH=src python3 perfbench/probe.py <workload>
"""

import json
import sys
import time

from calibration import kernel

KERNEL_RUNS = 10

before = [kernel() for _ in range(KERNEL_RUNS)]
start = time.perf_counter()
import mixcons  # noqa: E402,F401
import mixcons.cli  # noqa: E402,F401

imported = time.perf_counter()

from worker import warm_up  # noqa: E402

warm_start = time.perf_counter()
warm_up(sys.argv[1])
done = time.perf_counter()
after = [kernel() for _ in range(KERNEL_RUNS)]
print(json.dumps({"import_s": imported - start, "warmup_s": done - warm_start,
                  "kernel_s": (sum(before) + sum(after)) / (2 * KERNEL_RUNS)}))
