"""Fixed reference work that measures how fast the host runs right now.

    python bench/calibrate.py

Two kinds, each matched to the work it is compared with:

- ``reference_work()`` is a few milliseconds of integer arithmetic.  The
  worker runs it in its own process just before every in-process job.  It
  allocates no container objects, so the size of the program's heap does
  not change its cost.
- Run as a script, this file starts an interpreter, imports the
  standard-library modules the CLI imports, and calls ``reference_work()``
  a few times.  The worker runs it between CLI requests and around the
  set-up probes, which are fresh interpreters too.

Neither imports pfecalc, so no change to the program can change their cost;
only the host's speed can.  run.py divides every time by them (see
``run.normalise``).
"""

import argparse  # noqa: F401  (imported for its start-up cost)
import json  # noqa: F401
import re  # noqa: F401

# The reference speed: a host on which reference_work() takes WORK_S and
# this script, start to exit, takes SCRIPT_S (about a 2-core Xeon VM's).
WORK_S = 0.004
SCRIPT_S = 0.09


def reference_work():
    x = 0
    for i in range(30000):  # small-integer arithmetic
        x = (x * 31 + i) % 1000003
    h = 1
    for k in range(1, 300):  # big-integer multiply and reduce, 2000 bits
        h = h * k % (1 << 2000) + k
    return x + h


if __name__ == "__main__":
    for _ in range(8):
        reference_work()
