"""Time one workload set-up in a fresh interpreter and print the seconds,
then the reference kernel's time in the same interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <size>

The clock starts before numpy and glassland are imported, so the figure
covers the imports, the preset mixtures and their ``mixture.stats``, and
``hamiltonian.sample`` for the workload's instances.  The reference
kernel's mean time in the same interpreter follows it on the printed line;
``run.py`` starts this script several times and reports the median of
the two's ratio, scaled as in reference.py, as ``setup_s``.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    setup_s = perf_counter() - START
    import reference

    ref_s = reference.seconds([reference.sample(setup_s)])
    print(repr(setup_s), repr(ref_s))
