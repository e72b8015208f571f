"""Cold-start probe: a fresh interpreter imports flowlab and builds the
scenarios and spec-file systems of one workload, then prints the split of its
time as JSON.  The caller times the whole process from outside.

    python3 perfbench/probe.py '"sphere(3)"' '{"dim": 2, ...}' ...

Each argument is a JSON string (a built-in scenario name) or a JSON object
(an inline spec-file system).
"""

import json
import os
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import flowlab
    t1 = time.perf_counter()
    for item in map(json.loads, argv):
        if isinstance(item, str):
            flowlab.builtin(item)
        else:
            flowlab.load_system(item)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
