"""Regenerate ``golden.json``: the digests of the warm-up ops and of the
first ``--ops`` timed ops of seed 0, for every workload at its default
order.  Run it only when a workload's ops or inputs change on purpose:

    python3 bench/make_golden.py
"""

import argparse
import json
import random

import worker
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops", type=int, default=200)
    args = ap.parse_args()
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(cls.default_order)
        wl.setup()
        draw = workloads.Inputs(wl, worker.warmup_rng(name))
        warm = worker.Pass().run(wl, [draw(i) for i in range(worker.WARMUP_OPS)])
        draw = workloads.Inputs(wl, random.Random(worker.GOLDEN_SEED))
        timed = worker.Pass().run(wl, [], draw=draw, max_ops=args.ops)
        if warm.failed or timed.failed:
            raise SystemExit(f"{name}: {warm.failed + timed.failed} ops failed")
        golden[name] = {"order": wl.order, "warmup": warm.digests,
                        "seed0": timed.digests}
        print(f"{name}: {len(timed.digests)} ops")
    worker.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
