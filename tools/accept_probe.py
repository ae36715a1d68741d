"""Criteria 4, 6 and 8 of the acceptance suite, on any seeds.

    python3 tools/accept_probe.py --seeds 7 8 9 [--out accept_probe.json]

For each seed it trains the acceptance model as tests/test_acceptance.py
does (`train_model`: its `ACCEPT` config and `STEPS_PER_LEVEL`, with the seed
replaced; the seed also draws the corpus and the `TEST_PAIRS` test pairs) and
prints:

- criterion 4: mean full-resolution `L_s` and `L_c` after 1..K refinements,
  and the share of pairs whose `L_s` falls at every refinement;
- criterion 6: the share of pairs whose `L_s` does not rise when the final
  output is refined again at level 1 (the seed-dependent part of the
  criterion), with the range of refined/base `L_s` ratios;
- criterion 8: the mean MAD of `stylize(c, c)` from `c`, and its floor: the
  MAD of the nearest-upsampled coarsest content, which is what criterion 8
  reads if the finer levels add nothing.

The per-pair rows, criterion 6's base and refined `L_s` included, go to the
JSON file given by `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from restyle.images import pyramid, upsample  # noqa: E402
from restyle.stylizer import refine_external, stylize  # noqa: E402
from restyle.trainer import evaluate, full_resolution_losses  # noqa: E402

from test_acceptance import ACCEPT, train_model  # noqa: E402


def pair_rows(seed, model, cfg, pairs):
    """One row per test pair: the numbers criteria 4, 6 and 8 read."""
    result = evaluate(model, pairs)
    rows = []
    for i, (c, s) in enumerate(pairs):
        base = stylize(c, s, model).final
        _, ls_base = full_resolution_losses(base, c, s, model.encoder)
        refined = refine_external(base, c, s, model, level=1).final
        _, ls_refined = full_resolution_losses(refined, c, s, model.encoder)
        floor = pyramid(c, cfg.levels)[-1]
        for _ in range(cfg.levels - 1):
            floor = upsample(floor)
        style_after = result.per_pair_style[i]
        rows.append({
            "seed": seed, "pair": i,
            "style_after": style_after.tolist(),
            "content_after": result.per_pair_content[i].tolist(),
            "c4_monotone": bool(np.all(np.diff(style_after) < 0)),
            "c6_base_ls": ls_base, "c6_refined_ls": ls_refined,
            "c6_non_increase": bool(ls_refined <= ls_base + 1e-9),
            "c8_mad": float(np.mean(np.abs(stylize(c, c, model).final - c))),
            "c8_floor": float(np.mean(np.abs(floor - c)))})
    return rows


def report(seed, rows, train_s):
    def mean(key, j):
        return float(np.mean([r[key][j] for r in rows]))

    depth = len(rows[0]["style_after"])
    ls = [mean("style_after", j) for j in range(depth)]
    lc = [mean("content_after", j) for j in range(depth)]
    ratios = [r["c6_refined_ls"] / r["c6_base_ls"] for r in rows]
    mads = [r["c8_mad"] for r in rows]
    print(f"seed {seed}: trained in {train_s / 60:.1f} min", flush=True)
    print(f"  criterion 4: mean L_s {' -> '.join(f'{v:.5f}' for v in ls)} "
          f"(strictly decreasing: {all(a > b for a, b in zip(ls, ls[1:]))}), "
          f"monotone on {np.mean([r['c4_monotone'] for r in rows]):.0%} of {len(rows)} pairs; "
          f"mean L_c {' -> '.join(f'{v:.3f}' for v in lc)}")
    print(f"  criterion 6: non-increasing L_s on "
          f"{np.mean([r['c6_non_increase'] for r in rows]):.0%} of {len(rows)} pairs, "
          f"refined/base L_s {min(ratios):.3f}-{max(ratios):.3f}")
    print(f"  criterion 8: mean MAD {np.mean(mads):.4f} (worst {max(mads):.4f}), "
          f"floor {np.mean([r['c8_floor'] for r in rows]):.4f}", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[ACCEPT["seed"]],
                   help="seeds to run (default: the acceptance seed)")
    p.add_argument("--out", default="accept_probe.json", help="path of the per-pair rows")
    args = p.parse_args(argv)
    rows = []
    for seed in args.seeds:
        model, cfg, pairs, train_s = train_model(seed)
        seed_rows = pair_rows(seed, model, cfg, pairs)
        report(seed, seed_rows, train_s)
        rows += seed_rows
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
