"""One benchmark process: set up one workload, then (unless --setup-only)
drive its ops in a closed loop and print one JSON result line.

Started by ``run.py``; not meant to be run by hand.  The clock for
``setup_s`` starts on the line that sets ``C_START``, before ``fedosov`` is
imported.

Ops are timed in CPU seconds of this process (and in wall seconds for the
traced run), and the process runs a fixed kernel that does not touch
``fedosov`` (``reference.py``) before set-up, after it, and after every op;
``run.py`` scales each time by the reference times around it.
"""

import os
import sys
from time import perf_counter, process_time

from reference import reference_times

if "--cpu" in sys.argv:
    os.sched_setaffinity(0, {int(sys.argv[sys.argv.index("--cpu") + 1])})
SETUP_REFS = 5
REF_BEFORE = reference_times(SETUP_REFS)
C_START = process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

GOLDEN_PATH = BENCH_DIR / "golden.json"
WARMUP_OPS = 2
GOLDEN_SEED = 0


def warmup_rng(name):
    """Fixed inputs for the warm-up ops, the same for every --seed."""
    return random.Random(f"warmup/{name}")


def digest(wl, results):
    payload = wl.digest_payload(results)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_golden(name, order):
    if not GOLDEN_PATH.exists():
        return None
    entry = json.loads(GOLDEN_PATH.read_text()).get(name)
    return entry if entry and entry["order"] == order else None


class Pass:
    """One closed-loop pass: op i runs on inputs[i]; inputs past the end are
    drawn with ``draw`` (outside the op timer) until ``seconds`` of wall
    time have passed or ``max_ops`` ops have run.  Each op records its wall
    and CPU seconds; ``ref`` holds the CPU seconds of one reference run
    before the first op and one after each op, so that op i lies between
    ``ref[i]`` and ``ref[i + 1]``.  Without ``seconds`` the pass runs exactly
    the given inputs.  An op fails if its self-check fails, it raises, or
    its digest differs from ``expect[i]``."""

    def __init__(self):
        self.lat = []
        self.cpu = []
        self.ref = []
        self.digests = []
        self.failed = 0

    def run(self, wl, inputs, seconds=None, draw=None, max_ops=None,
            tracer=None, expect=None):
        self.ref = reference_times(1)
        deadline = None if seconds is None else perf_counter() + seconds
        i = 0
        while i != max_ops:
            if deadline is not None and perf_counter() >= deadline:
                break
            if i == len(inputs):
                if draw is None:
                    break
                inputs.append(draw(i))
            if tracer is not None:
                tracer.phase = "loop"
            t0, c0 = perf_counter(), process_time()
            try:
                bad, results = wl.op(inputs[i])
            except Exception as exc:  # an op that raises is a failed op
                bad, results = f"raised {type(exc).__name__}: {exc}", None
            self.cpu.append(process_time() - c0)
            self.lat.append(perf_counter() - t0)
            if tracer is not None:
                tracer.phase = None
            self.ref += reference_times(1)
            d = None if bad else digest(wl, results)
            if not bad and expect is not None and i < len(expect) and d != expect[i]:
                bad = f"digest {d} != golden {expect[i]}"
            if bad:
                print(f"{wl.name} op {i}: {bad}", file=sys.stderr)
            self.digests.append(d)
            self.failed += bool(bad)
            i += 1
        return self


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--order", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    order = cls.default_order if args.order is None else args.order
    wl = cls(order)
    golden = load_golden(wl.name, order)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.phase = "setup"
    wl.setup()
    if tracer is not None:
        tracer.phase = None
        tracer.uninstall()
    # the warm-up inputs are drawn outside the set-up clock
    c0 = process_time()
    draw = workloads.Inputs(wl, warmup_rng(wl.name))
    warm_inputs = [draw(i) for i in range(WARMUP_OPS)]
    gen_s = process_time() - c0
    warm = Pass().run(wl, warm_inputs, expect=golden and golden["warmup"])
    out = {"order": order, "setup_cpu_s": process_time() - C_START - gen_s,
           "setup_ref": REF_BEFORE + reference_times(SETUP_REFS),
           "warmup_ops": len(warm.lat), "warmup_failed": warm.failed,
           "warmup_digests": warm.digests}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    inputs = []
    expect = golden["seed0"] if golden and args.seed == GOLDEN_SEED else None
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    main_pass = Pass().run(wl, inputs, seconds,
                           workloads.Inputs(wl, random.Random(args.seed)),
                           args.max_ops, expect=expect)
    out.update(lat=main_pass.lat, cpu=main_pass.cpu, ref=main_pass.ref,
               failed=main_pass.failed, digests=main_pass.digests,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        # replay the same ops traced; tracing must not change any result
        tracer.install()
        traced = Pass().run(wl, inputs, seconds, tracer=tracer,
                            expect=main_pass.digests)
        tracer.uninstall()
        ctx = getattr(wl, "ctx", None)
        out.update(traced_lat=traced.lat, traced_cpu=traced.cpu,
                   traced_ref=traced.ref, traced_failed=traced.failed,
                   records=[[*k, *v] for k, v in tracer.records.items()],
                   cache=[[*k, *v] for k, v in tracer.cache.items()],
                   cache_entries={} if ctx is None else {
                       "lambda": len(ctx._lambda_cache), "nu": len(ctx._nu_cache),
                       "rho": len(ctx._rho_cache)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
