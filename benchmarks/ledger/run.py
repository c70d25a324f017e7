"""One workload, one run, one fresh process — the unit the driver and the
ledger both spawn::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The clock starts here, before anything
is imported, so ``setup_s`` covers the imports too.
"""

import time

_PROCESS_START = time.perf_counter()

if __name__ == "__main__":
    import os
    import sys

    _ROOT = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

    # A developer's shell must not change what is measured.  The
    # program's switches (REPRO_ENGINE, REPRO_FAST_PATH, REPRO_PERF,
    # REPRO_STORE, the REPRO_CRASH_AFTER_* hooks) are all read at call
    # time, so clearing them before the first import is as good as a
    # clean spawn environment — and also covers a run the driver starts.
    for _name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[_name]

    from benchmarks.ledger.child import main

    sys.exit(main(_PROCESS_START))
