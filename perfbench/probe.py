"""One cold set-up of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/probe.py <clock|hierarchy>``.  Imports
the package, builds the workload's protocol and population, compiles its
transition table into the (empty) ``REPRO_TABLE_CACHE`` where the engine
compiles, constructs the engine and prints one JSON line of timings.
The parent times the whole launch-to-report interval as ``setup_s``.
"""

import json
import os
import sys
import time


def main(workload: str) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    start = time.perf_counter()
    from repro.engine.compiled import compile_table
    from repro.simulate import make_engine

    import stacks

    report = {"import_s": time.perf_counter() - start}
    start = time.perf_counter()
    protocol, population, engine = stacks.build(workload)
    report["build_s"] = time.perf_counter() - start
    if workload != "hierarchy":  # the stack's closure is far too large
        start = time.perf_counter()
        table = compile_table(protocol, population.counts.keys())
        report["compile_s"] = time.perf_counter() - start
        report["states"] = table.num_states
        report["pairs"] = table.num_pairs
    start = time.perf_counter()
    make_engine(protocol, population, engine, seed=0)
    report["make_engine_s"] = time.perf_counter() - start
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
