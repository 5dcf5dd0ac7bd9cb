"""Set-up probe: a fresh process that sets one workload up, then says so.

run.py passes its perf_counter reading taken just before starting this
process; the reply is the time from then to the end of set-up: interpreter
start, the imports, config validation and building the service laws.
perf_counter reads a system-wide monotonic clock, so the two readings
compare.  Usage: python3 bench/probe.py <workload> <seed> <start>
"""
import sys
import time

from workloads import Workload

if __name__ == "__main__":
    name, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    Workload(name, seed).setup()
    print(f"ready {time.perf_counter() - start!r}", flush=True)
