"""Set-up of one benchmark run in a fresh interpreter.

Imports irred from the checkout, generates the inputs of a workload for a
seed, and prints them as one JSON line.  The benchmark times this process
from launch to that line: that is the set-up time a user pays.  Meanwhile
it samples the host's speed (hostspeed.py) and prints the probe times as
a second JSON line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    with hostspeed.Sampler(period=0.01) as sampler:
        import irred  # noqa: F401  (part of the timed set-up)
        import gen
        line = json.dumps(gen.inputs(workload, seed))
    print(line, flush=True)
    print(json.dumps([p for _, p in sampler.samples]))


if __name__ == "__main__":
    main()
