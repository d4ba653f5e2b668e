"""The fedosov benchmark.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) in a closed
loop with one client and no threads, from a fresh checkout: the library is
imported from ``src/`` and nothing is installed.  Every op ends in an exact
self-check, and its canonical JSON is folded into a digest that is compared
with ``golden.json`` for the warm-up ops of every run and, for seed 0, for
the timed ops too.  Any failed check or digest mismatch makes the run exit
with code 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half of
``--seconds`` untraced and replays the same ops traced for the other half,
and prints the per-layer metrics (see ``spans.py``).  Each metric is
printed on its own line with its unit, and the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Times are host-speed normalized CPU times.  On a shared host (a 2-vCPU
virtual machine, say) the speed at which one process runs can drift by a
factor of two within seconds, far more than the changes the benchmark must
resolve.  So
every process of a run is kept on the CPU that is fastest when the run
starts, every op is timed in CPU seconds, and between ops the worker runs
a fixed reference kernel (``reference.py``, Fraction-coefficient
polynomial arithmetic that does not touch ``fedosov``).  An op's time is
scaled by ``REF_S`` over the mean of the reference times just before and
just after it: the op's CPU time on a host where the reference takes
``REF_S``.  A change to the library moves these times as it moves the raw
ones; a change in host speed mostly cancels.  The raw CPU figures and the
reference time are printed as ``#`` lines next to the metrics.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes of the
CPU time from process start (before ``import fedosov``) to the first timed
op, normalized with the median of the reference times measured right
before and right after it; all but the last of the processes stop after
set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from reference import reference_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("star", "beta", "cochain-algebra", "weyl-homotopy")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
# nominal CPU seconds of one reference.reference() run
REF_S = 0.002

# per-layer spans: name -> the size recorded next to calls and self time
LAYER_SPANS = {
    "poly.mul": "terms_out", "poly.add": "terms_out", "poly.scale": "terms_out",
    "weyl.moyal_product": "terms_out", "weyl.nabla": "terms_out",
    "weyl.delta_inv": "terms_out",
    "quantize.tau": "terms_out", "quantize.star": "terms_out",
    "cochains.horizontal_lift_cochain": "terms_out", "cochains.cup": "terms_out",
    "cochains.cochain_eval": "terms_in", "cochains.local_eval": "terms_out",
    "cochains.insert": "terms_out", "cochains.hochschild_d": "terms_out",
    "cochains.gerstenhaber": "terms_out",
    "weylhh.mono_product": "terms_out", "weylhh.cochain_insert": "terms_out",
    "weylhh.eval_on_bar": "terms_out", "weylhh.cochain_from_values": "terms_out",
    "weylhh.cochain_homotopy": "terms_out", "weylhh.rho_hat": "terms_out",
    "weylhh.hh_hochschild_d": "terms_out", "weylhh.gl_transport": "terms_out",
    "io.parse_poly": "terms_out", "io.dumps_canonical": "chars_out",
}
# fixed-point spans and the delta-inverse calls that count their iterations
ITERATIONS = {"quantize.tau": "weyl.delta_inv",
              "cochains.horizontal_lift_cochain": "cochains.delta_inv_cochain"}


class BenchError(Exception):
    pass


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fastest_cpu():
    """The CPU this process may use on which the reference kernel runs
    fastest now, or None when there is only one.  Every worker of the run
    stays on it: the CPUs of a shared host can differ in speed by a factor
    of two, and a process that moved between them would mix both."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = statistics.median(reference_times(7))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def worker(args, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.cpu is not None:
        cmd += ["--cpu", str(args.cpu)]
    if args.order is not None:
        cmd += ["--order", str(args.order)]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError("worker printed no result") from exc


def normalized(cpu, ref):
    """Op CPU seconds at the nominal host speed (see the module docstring)."""
    return [c * 2 * REF_S / (before + after)
            for c, before, after in zip(cpu, ref, ref[1:])]


def setup_seconds(s):
    return s["setup_cpu_s"] * REF_S / statistics.median(s["setup_ref"])


def end_to_end(main, setups):
    lat = normalized(main["cpu"], main["ref"])
    print(f"# raw cpu: op_p50_ms {1e3 * statistics.median(main['cpu']):.6g} "
          f"ops_per_s {len(lat) / sum(main['cpu']):.6g} setup_s "
          f"{statistics.median(s['setup_cpu_s'] for s in setups):.6g}; reference "
          f"{1e3 * statistics.median(main['ref']):.6g} ms, nominal {1e3 * REF_S:g} ms")
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_seconds(s) for s in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer(main):
    """Per-op averages over the traced replay: calls and self seconds per op,
    terms per call; set-up spans (solve_r, data load) as totals."""
    n = len(main["traced_lat"])
    agg = {}
    edges = {}
    for phase, parent, name, calls, total, child, terms in main["records"]:
        a = agg.setdefault((phase, name), [0, 0.0, 0.0, 0])
        for j, v in enumerate((calls, total, child, terms)):
            a[j] += v
        edges[(phase, parent, name)] = calls

    def get(phase, name):
        return agg.get((phase, name), [0, 0.0, 0.0, 0])

    out = {}
    for name, size in LAYER_SPANS.items():
        calls, total, child, terms = get("loop", name)
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = ((total - child) / n, "s")
        out[f"{name}.{size}"] = (terms / calls if calls else 0.0, "count")
    for span, inner in ITERATIONS.items():
        calls = get("loop", span)[0]
        out[f"{span}.iterations"] = (
            edges.get(("loop", span, inner), 0) / calls if calls else 0.0, "count")
    solve = get("setup", "quantize.solve_r")
    out["quantize.solve_r.s"] = (solve[1], "s")
    out["quantize.solve_r.iterations"] = (
        edges.get(("setup", "quantize.solve_r", "weyl.delta_inv"), 0) / solve[0]
        if solve[0] else 0.0, "count")
    load = get("setup", "io.fedosov_data_from_json")
    out["io.fedosov_data_from_json.calls"] = (load[0], "count")
    out["io.fedosov_data_from_json.self_s"] = (load[1] - load[2], "s")
    cache = {(phase, name): (hits, misses)
             for phase, name, hits, misses in main["cache"]}
    for name, metric in (("weylhh.mono_product", "weylhh.mono_cache.hit_ratio"),
                         ("cochains.split_cache", "cochains.split_cache.hit_ratio")):
        hits, misses = cache.get(("loop", name), (0, 0))
        out[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for cache_name in ("lambda", "nu", "rho"):
        out[f"weylhh.{cache_name}_cache.entries"] = (
            main["cache_entries"].get(cache_name, 0), "count")
    op_s = sum(main["traced_lat"])
    out["weyl.moyal_product.share"] = (get("loop", "weyl.moyal_product")[1] / op_s,
                                       "ratio")
    traced = n / sum(normalized(main["traced_cpu"], main["traced_ref"]))
    untraced = n / sum(normalized(main["cpu"], main["ref"])[:n])
    out["bench.traced_ops_per_s"] = (traced, "1/s")
    out["bench.trace_overhead_ops_per_s"] = (traced - untraced, "1/s")
    return out, edges


def run_one(args):
    """Run one workload; returns (metrics, attempted, failed)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, "--setup-only"))
    main = worker(args)
    setups.append(main)
    attempted = sum(s["warmup_ops"] for s in setups) + len(main["lat"])
    failed = sum(s["warmup_failed"] for s in setups) + main["failed"]
    print(f"# workload {args.workload} order {main['order']} "
          f"timed_ops {len(main['lat'])} warmup_ops {main['warmup_ops']}")
    if args.trace:
        attempted += len(main["traced_lat"])
        failed += main["traced_failed"]
        metrics, edges = per_layer(main)
        for (phase, parent, name), calls in sorted(edges.items()):
            if phase == "loop":
                print(f"# call {parent} -> {name}: {calls / len(main['traced_lat']):.6g}"
                      " per op")
    else:
        metrics = end_to_end(main, setups)
    print(f"{args.workload} op_fail_ratio {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--order", type=int,
                    help="override the workload's order (smoke tests)")
    ap.add_argument("--max-ops", type=int,
                    help="stop the timed loop after this many ops (smoke tests)")
    args = ap.parse_args()
    if not (ROOT / "src" / "fedosov" / "__init__.py").is_file():
        print(f"bench: no fedosov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"seed {args.seed} commit {commit()} trace {args.trace}")
    args.cpu = fastest_cpu()
    print(f"# cpu {args.cpu}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            args.workload = name
            m, a, f = run_one(args)
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
