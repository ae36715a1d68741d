"""Latency and peak memory of `restyle stylize` across image sizes.

    python3 tools/size_sweep.py [--sizes 384 768 1024 1536 2048] [--calls 2]
                                [--out size_sweep.json]

Writes a model directory of initial weights (the default `RunConfig`, each
level calibrated on its corpus, as `restyle train` starts), then for each
size a seed-1 test pair, and runs `restyle stylize` on that pair through
`cli.main` `--calls` times in a fresh Python process per size. Per size it
prints the exit code, the first call's latency, the median of the later
calls and the process's peak RSS (`ru_maxrss`, which includes the
interpreter and numpy). A call that exits non-zero ends that size, with the
error line it printed. The package is imported from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from restyle import cli, trainer  # noqa: E402
from restyle.config import RunConfig  # noqa: E402
from restyle.corpus import CorpusSpec, make_corpus, make_test_pairs  # noqa: E402
from restyle.images import save_ppm  # noqa: E402


def child(argv, calls):
    """Run `restyle stylize argv` up to `calls` times in this process; print
    one JSON line with the exit codes, latencies and peak RSS."""
    codes, seconds = [], []
    for _ in range(calls):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
        if code != 0:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"codes": codes, "seconds": seconds, "peak_rss_mb": peak_mb}))


def write_model(model_dir):
    """A model directory of initial weights under the default configuration."""
    cfg = RunConfig(model_dir=model_dir).validate()
    contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                              content_count=cfg.content_count,
                                              style_count=cfg.style_count))
    enc = trainer.make_model_encoder(cfg)
    trainer.init_model_dir(model_dir, cfg, enc)
    for level in range(1, cfg.levels + 1):
        params = trainer.init_level_params(cfg, level, enc, contents, styles)
        trainer.save_level_checkpoint(os.path.join(model_dir, trainer.level_file(level)),
                                      params)


def write_pair(workdir, size):
    (content, style), = make_test_pairs(CorpusSpec(seed=1, size=size, content_count=1,
                                                   style_count=1), 1)
    paths = []
    for role, img in (("content", content), ("style", style)):
        paths.append(os.path.join(workdir, f"{role}{size}.ppm"))
        with open(paths[-1], "wb") as fh:
            fh.write(save_ppm(img))
    return paths


def sweep(sizes, calls, workdir):
    model_dir = os.path.join(workdir, "model")
    write_model(model_dir)
    rows = []
    for size in sizes:
        content, style = write_pair(workdir, size)
        out = os.path.join(workdir, f"out{size}.ppm")
        argv = ["stylize", "--content", content, "--style", style, "--model", model_dir,
                "--out", out]
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                               "--calls", str(calls), "--", *argv],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            row = {"size": size, "process_exit": proc.returncode,
                   "stderr": proc.stderr.strip().splitlines()[-1:]}
        else:
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            later = run["seconds"][1:]
            row = {"size": size, "exit": run["codes"][-1], "calls": len(run["seconds"]),
                   "first_call_s": run["seconds"][0],
                   "later_call_s": statistics.median(later) if later else None,
                   "peak_rss_mb": run["peak_rss_mb"],
                   "error": proc.stderr.strip().splitlines()[-1:]}
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[384, 768, 1024, 1536, 2048])
    p.add_argument("--calls", type=int, default=2)
    p.add_argument("--out", default=None, help="JSON file for the per-size rows")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("stylize_argv", nargs="*", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.calls < 1:
        p.error("--calls must be at least 1")
    if args.stylize_argv and not args.child:
        p.error(f"unexpected arguments: {args.stylize_argv}")
    if args.child:
        child(args.stylize_argv, args.calls)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        rows = sweep(args.sizes, args.calls, workdir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"calls": args.calls, "nproc": len(os.sched_getaffinity(0)),
                       "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
