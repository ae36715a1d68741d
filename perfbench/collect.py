"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads train_l1_96,...] \
        [--trace 0] [--out perfbench/out/summary.json]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, reading
run_seconds and the workloads from BENCHMARK.json. For every metric it
reports the median, the quartiles from statistics.quantiles(values, n=4) and
the spread: (third quartile - first quartile) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out", "summary.json"))
    args = p.parse_args(argv)

    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            record = os.path.join(HERE, "out", f"{name}-seed{seed}-trace{args.trace}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", record]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(record, encoding="utf-8") as fh:
                detail = json.load(fh)
            runs.append((result, detail))
            print(f"{name} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if v["value"] is not None), flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r, _ in runs])
                   for k in runs[0][0]["metrics"]}
        tails = [d["item_ms_tail"]["value"] for _, d in runs if "item_ms_tail" in d]
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "tail_percentile": [d.get("tail_percentile") for _, d in runs],
            "item_ms_tail": (summarize(tails) if len(tails) > 1 and None not in tails
                             else tails),
            "output_sha256": {str(d["seed"]): d["output_sha256"] for _, d in runs},
            "contended_runs": [d["seed"] for _, d in runs if d["meta"]["contended"]],
            "meta": runs[-1][1]["meta"],
            "metrics": metrics,
        }
        for k, m in metrics.items():
            print(f"  {name} {k}: median={m['median']:.6g} spread={m['spread']:.4f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
