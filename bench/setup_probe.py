"""Set-up probe: build or load and enumerate every group of one workload.

Run as a fresh process by ``run.py``.  Prints one JSON line with the
CLOCK_MONOTONIC time at which the last group finished enumerating and
the orders of the groups, then exits; the parent takes ``setup_s`` from
its own launch time to that stamp.

    python3 bench/setup_probe.py WORKLOAD ROOT
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    name, root = argv
    # Importing workloads imports classprod.
    from classprod import build
    from classprod.formats import load_group
    from workloads import WORKLOADS

    orders = []
    for kind, src in WORKLOADS[name].sources:
        if kind == "file":
            g, _ = load_group(os.path.join(root, src))
        else:
            g = build(src)
        g.elements()
        orders.append(g.order)
    done_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(json.dumps({"done_ns": done_ns, "orders": orders}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
