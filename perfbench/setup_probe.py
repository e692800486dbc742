"""One benchmark set-up in a fresh process: import the program, build the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>

``run.py`` times this process from the outside for its ``setup_s``
metric; it prints nothing.
"""

import sys

from run import import_program  # pins OMP_NUM_THREADS before numpy loads
from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, seconds = sys.argv[1:4]
    import_program()
    WORKLOADS[name].ops(int(seed), float(seconds))
