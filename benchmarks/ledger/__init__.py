"""The layered performance ledger: the repo's benchmark.

Four named workloads driven through the public functions of ``repro.*``
from outside, end-to-end metrics measured with tracing off, and a
separate traced pass that attributes the wall clock to the repo's own
layers.  See ``README.md`` in this directory.

Entry points:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one fresh process (the unit ``BENCHMARK.json`` names)
``PYTHONPATH=src python -m benchmarks.ledger run|compare ...``
    the ledger: interleaved repeats, medians, fingerprints, the gate
"""
