"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train_l1_96 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. The full record
(percentiles, sample counts, output digests, computed counts, machine
metadata) is written as JSON to perfbench/out/. See perfbench/README.md.
"""

import time

PROCESS_T0 = time.perf_counter()  # before numpy and restyle are imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("train_l1_96", "train_l3_24", "stylize_384")
# a tail percentile needs at least this many items beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="path of the full JSON record")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_restyle():
    """Import restyle from this checkout's src/, never from anywhere else."""
    if not os.path.isdir(os.path.join(SRC, "restyle")):
        raise ImportError(f"no restyle package under {SRC}")
    sys.path.insert(0, SRC)
    import restyle
    if os.path.dirname(os.path.dirname(os.path.abspath(restyle.__file__))) != SRC:
        raise ImportError(f"restyle imported from {restyle.__file__}, not {SRC}")


def loadavg_1m():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def blas_metadata():
    """numpy and OpenBLAS versions, CPU count and the BLAS thread setting."""
    import numpy as np
    meta = {"numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        meta["blas"] = None
    meta["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                meta["blas_threads"] = fn()
                break
    return meta


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND items beyond it.

    Up to 2 * TAIL_BEYOND items no percentile above the median qualifies, and
    the median is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    median = statistics.median(ordered)
    if n <= 2 * TAIL_BEYOND:
        return median, 50.0
    return max(ordered[n - TAIL_BEYOND - 1], median), 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def end_to_end(latencies, ok_items, attempted, timed_s, setup_s, peak_rss_kb):
    """The end-to-end metrics and the record's tail; failed items count as infinitely slow.

    The tail is not in the result line: on level-3 training a few steps per run
    stall for 100-300 ms, and how many do varies too much from run to run for
    a gate (see README.md).
    """
    lat_ms = [1e3 * x if x is not None else math.inf for x in latencies]
    tail_ms, pct = tail(lat_ms)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "item_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "items_per_s": metric(ok_items / timed_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
        "ok_frac": metric(ok_items / attempted, "ratio"),
    }
    extra = {"item_ms_tail": metric(tail_ms, "ms"), "tail_percentile": pct,
             "items": len(lat_ms)}
    return metrics, extra


FORWARD_BACKWARD_OPS = ("conv2d", "upsample_nearest2x", "avgpool2x", "matmul", "softmax_rows",
                        "gram")
TIMED_LAYERS = ("autodiff.backward", "trainer.Adam.step", "stylizer.refine_level",
                "transition.nonlocal_block", "transition.run_decoder",
                "transition.propagation_block", "encoder.encode", "encoder.errors_between",
                "trainer.TargetCache.features", "trainer.tv_loss", "images.load_ppm",
                "images.save_ppm", "images.downsample", "images.upsample", "checkpoint.read")
COUNTED_LAYERS = ("stylizer.refine_level", "transition.run_decoder", "encoder.encode",
                  "trainer.TargetCache.features")
SETUP_LAYERS = ("corpus.make_corpus", "trainer.init_level_params")


def per_layer(tracer, setup_end, traced_units, traced_items, overhead):
    """Per-layer metrics, per traced item unless stated otherwise."""
    calls, total, self_ns = tracer.summarize([(lo, hi) for _, lo, hi in traced_units])
    ms = lambda ns: ns / 1e6 / traced_items  # noqa: E731
    out = {}
    for op in FORWARD_BACKWARD_OPS:
        for direction in ("fwd", "bwd"):
            out[f"autodiff.{op}.{direction}_ms"] = metric(ms(total[f"autodiff.{op}.{direction}"]),
                                                          "ms")
    for name in TIMED_LAYERS:
        out[f"{name}.ms"] = metric(ms(total[name]), "ms")
    out["autodiff.backward.self_ms"] = metric(ms(self_ns["autodiff.backward"]), "ms")
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = metric(calls[name] / traced_items, "count")
    counts = tracer.counts
    out["autodiff.record.calls"] = metric(counts["autodiff.record.calls"] / traced_items, "count")
    out["checkpoint.read.bytes"] = metric(counts["checkpoint.read.bytes"] / traced_items, "B")
    for op in ("conv2d", "matmul"):
        out[f"autodiff.{op}.flop_computed"] = metric(counts[f"autodiff.{op}.flop"] / traced_items,
                                                     "flop")
        out[f"autodiff.{op}.bytes_computed"] = metric(
            counts[f"autodiff.{op}.bytes"] / traced_items, "B")
    # set-up layers: mean per call over set-up and the traced units
    s_calls, s_total, _ = tracer.summarize([(0, setup_end)])
    for name in SETUP_LAYERS:
        n = s_calls[name] + calls[name]
        out[f"{name}.ms"] = metric((s_total[name] + total[name]) / 1e6 / max(n, 1), "ms")
    out["trace_overhead_frac"] = metric(overhead, "ratio")
    return out, calls, s_calls


def span_problems(expected, calls, setup_calls, traced_items):
    """Expected spans that are missing or occur an unexpected number of times."""
    problems = []
    for name, (low, high) in expected.items():
        per_item = calls.get(name, 0) / traced_items
        if per_item < low or (high is not None and per_item > high):
            problems.append(f"{name}: {per_item:g} per item, expected "
                            f"{low:g}..{'' if high is None else f'{high:g}'}")
    if not setup_calls.get("corpus.make_corpus"):
        problems.append("corpus.make_corpus: no span during set-up")
    return problems


def schedule(wl, args, units, elapsed):
    """The (traced, items) of each unit to run, given the units run so far.

    A workload with a plan runs exactly its planned units. Otherwise units
    repeat until the next one would overrun --seconds; a traced run
    alternates untraced and traced units and ends on a traced one.
    """
    plan = wl.plan(args.seconds, bool(args.trace))
    if plan is not None:
        yield from plan
        return
    while True:
        yield bool(args.trace) and len(units) % 2 == 1, 1
        if args.trace and len(units) % 2:
            continue  # end on a traced unit, so both kinds run equally often
        if elapsed() + statistics.mean(u["wall"] for u in units) > args.seconds:
            return


def run(args):
    load_before = loadavg_1m()
    import_restyle()
    import workloads
    from hooks import Tracer

    import_s = time.perf_counter() - PROCESS_T0
    wl = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2 ** 31  # numpy seeds must be non-negative
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter
    try:
        # set-up, once per process; a traced run traces it
        os.makedirs(workdir)
        t0 = clock()
        if tracer is not None:
            tracer.install()
        try:
            state = wl.setup(seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload_setup_s = clock() - t0
        setup_end = len(tracer) if tracer is not None else 0
        setup_counts = dict(tracer.counts) if tracer is not None else {}
        if tracer is not None:
            tracer.counts.clear()

        # timed phase: from the start of the first item to the end of the last unit
        units = []
        t_start = None
        for traced, items in schedule(wl, args, units, lambda: clock() - t_start):
            traced = traced and tracer is not None
            lo = len(tracer) if traced else 0
            if traced:
                tracer.install()
            u0 = clock()
            try:
                start, latencies, output = wl.run_unit(state, clock, items)
            finally:
                if traced:
                    tracer.uninstall()
            u1 = clock()
            if t_start is None:
                t_start = start if start is not None else u0
            units.append(dict(traced=traced, wall=u1 - u0, latencies=latencies, output=output,
                              spans=(lo, len(tracer) if traced else 0)))
        timed_s = u1 - t_start
        # ru_maxrss in KiB, read before the float64 checks allocate their own arrays
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        # output checks, outside the timed phase
        reference = wl.reference(state)
        failures = []
        for i, u in enumerate(units):
            reason = wl.check(u["output"], reference)
            if reason is None and None in u["latencies"]:
                reason = "unit stopped before its last item"
            u["failure"] = reason
            if reason is not None:
                failures.append(f"unit {i}: {reason}")
        digests = wl.digests([u["output"] for u in units])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only if no other run is using it
        except OSError:
            pass

    measured = [u for u in units if not u["traced"]]
    attempted = sum(len(u["latencies"]) for u in measured)
    failed = sum(len(u["latencies"]) for u in measured if u["failure"])
    latencies = [None if u["failure"] else x for u in measured for x in u["latencies"]]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "units": len(units),
              "items_per_unit": [len(u["latencies"]) for u in units],
              "timed_s": timed_s, "import_s": import_s, "workload_setup_s": workload_setup_s,
              "failures": failures, "output_sha256": digests,
              "unit_walls_s": [u["wall"] for u in units],
              "latencies_ms": [None if x is None else 1e3 * x for x in latencies]}
    if tracer is not None:
        traced_units = [(f"unit{i}", *u["spans"]) for i, u in enumerate(units) if u["traced"]]
        traced_items = sum(len(u["latencies"]) for u in units if u["traced"])
        overhead = (sum(u["wall"] for u in units if u["traced"])
                    / sum(u["wall"] for u in measured) - 1.0)
        metrics, calls, setup_calls = per_layer(tracer, setup_end, traced_units, traced_items,
                                                overhead)
        problems = span_problems(workloads.EXPECTED_SPANS[args.workload], calls, setup_calls,
                                 traced_items)
        failures.extend(f"span check: {p}" for p in problems)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
        tracer.write(spans_path, traced_units)
        detail.update(traced_items=traced_items, spans=len(tracer), spans_file=spans_path,
                      setup_counts=setup_counts)
    else:
        metrics, extra = end_to_end(latencies, attempted - failed, attempted, timed_s,
                                    t_start - PROCESS_T0, peak_rss_kb)
        detail.update(extra)
    load_after = loadavg_1m()
    meta = blas_metadata()
    # this process keeps at most nproc threads runnable (the interpreter and the
    # BLAS workers), so a load above nproc + 1 means other work was competing
    meta.update(loadavg_1m_before=load_before, loadavg_1m_after=load_after,
                contended=load_before > meta["nproc"] + 1)
    detail["meta"] = meta
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail["result"] = result
    out_path = args.out or os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for f in failures:
        print(f"FAILED {f}")
    print(f"{args.workload} seed={args.seed} units={len(units)} items={attempted} "
          f"timed={timed_s:.1f}s record={out_path}")
    if "item_ms_tail" in detail:
        print(f"item_ms_tail={detail['item_ms_tail']['value']} ms "
              f"(p{detail['tail_percentile']:.1f} of {detail['items']} items)")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except ImportError as exc:
        print(f"error: cannot import restyle: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report any crash without printing a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
