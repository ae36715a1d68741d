"""Criteria 4, 6 and 8 of the acceptance suite, on any seeds.

    python3 tools/accept_probe.py --seeds 7 8 9 [--out accept_probe.json]
                                  [--descent STEPS LR]

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
  reads if the finer levels add nothing;
- the median per level, coarsest first, of `step_rms`: the RMS of what the
  level changed in the image, its output minus its upsampled input (minus
  the start estimate at the coarsest level), so an idle level shows.

`--descent STEPS LR` adds, for each level below the coarsest, plain pixel
descent on that level's own objective: STEPS Adam steps at LR from the
estimate the level receives (the upsampled output of the next coarser
level), under `level_terms` on `recovering_clamp01`, `tv_loss` and
`combine_losses` with the acceptance weights, toward a `TargetCache` of the
pair as in training. There is no network, so no zero-pair term. It prints
the mean full-resolution `L_s` before and after and the share of pairs on
which it fell.

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

from restyle import autodiff as ad  # noqa: E402
from restyle.autodiff import Tensor  # noqa: E402
from restyle.images import from_chw, pyramid, to_chw, upsample  # noqa: E402
from restyle.stylizer import refine_external, start_estimate, stylize  # noqa: E402
from restyle.trainer import Adam, LossWeights, TargetCache, combine_losses, evaluate, \
    full_resolution_losses, level_terms, recovering_clamp01, tv_loss  # noqa: E402

from test_acceptance import ACCEPT, train_model  # noqa: E402


def at_level(img, level):
    """The level-`level` version of a full-resolution image."""
    return pyramid(img, level)[-1]


def full_size(img, level):
    """A level-`level` image nearest-upsampled to full resolution."""
    for _ in range(level - 1):
        img = upsample(img)
    return img


def step_rms(c, outputs):
    """RMS of each level's change to the image, coarsest first."""
    inputs = [start_estimate(at_level(c, len(outputs)))] + [upsample(o) for o in outputs[:-1]]
    return [float(np.sqrt(np.mean((o.astype(np.float64) - x) ** 2)))
            for o, x in zip(outputs, inputs)]


def descend(icing, c, s, level, model, cfg, steps, lr):
    """`steps` Adam steps at `lr` on the pixels of `icing` under level `level`'s own
    objective toward the full-resolution pair (c, s); returns the clamped image."""
    cache = TargetCache(model.encoder, cfg.levels, level, [c], [s])
    levels = range(level, cfg.levels + 1)
    targets = ([cache.features("c", 0, j) for j in levels],
               [cache.features("s", 0, j) for j in levels])
    weights = LossWeights.from_config(cfg)
    x = Tensor(to_chw(icing), requires_grad=True)
    opt = Adam([x])
    for _ in range(steps):
        opt.zero_grad()
        stylized = recovering_clamp01(x)
        l_pc, l_ps = level_terms(stylized, targets, model.encoder)
        ad.backward(combine_losses(l_pc, l_ps, tv_loss(stylized), level, weights))
        opt.step(lr)
    return np.clip(from_chw(x.data), 0.0, 1.0)


def descent_ls(c, s, outputs, model, cfg, steps, lr):
    """Full-resolution `L_s` (before, after) of `descend` at each level below the
    coarsest, from the upsampled output of the next coarser level."""
    before, after = [], []
    for level, coarser in zip(range(cfg.levels - 1, 0, -1), outputs):
        icing = upsample(coarser)
        out = descend(icing, c, s, level, model, cfg, steps, lr)
        before.append(full_resolution_losses(full_size(icing, level), c, s, model.encoder)[1])
        after.append(full_resolution_losses(full_size(out, level), c, s, model.encoder)[1])
    return before, after


def pair_rows(seed, model, cfg, pairs, descent=None):
    """One row per test pair: the numbers criteria 4, 6 and 8 read, and with
    `descent` (steps, lr) the `descent_ls` of the pair."""
    result = evaluate(model, pairs)
    rows = []
    for i, (c, s) in enumerate(pairs):
        outputs = stylize(c, s, model).intermediates
        base = outputs[-1]
        _, ls_base = full_resolution_losses(base, c, s, model.encoder)
        refined = refine_external(base, c, s, model, level=1).final
        _, ls_refined = full_resolution_losses(refined, c, s, model.encoder)
        floor = full_size(at_level(c, cfg.levels), cfg.levels)
        style_after = result.per_pair_style[i]
        row = {
            "seed": seed, "pair": i,
            "style_after": style_after.tolist(),
            "content_after": result.per_pair_content[i].tolist(),
            "c4_monotone": bool(np.all(np.diff(style_after) < 0)),
            "c6_base_ls": ls_base, "c6_refined_ls": ls_refined,
            "c6_non_increase": bool(ls_refined <= ls_base + 1e-9),
            "c8_mad": float(np.mean(np.abs(stylize(c, c, model).final - c))),
            "c8_floor": float(np.mean(np.abs(floor - c))),
            "step_rms": step_rms(c, outputs)}
        if descent is not None:
            row["descent_ls_before"], row["descent_ls_after"] = descent_ls(
                c, s, outputs, model, cfg, *descent)
        rows.append(row)
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
          f"floor {np.mean([r['c8_floor'] for r in rows]):.4f}")
    medians = np.median([r["step_rms"] for r in rows], axis=0)
    print("  step RMS median: " + ", ".join(f"level {depth - j} {v:.4g}"
                                            for j, v in enumerate(medians)), flush=True)
    if "descent_ls_before" in rows[0]:
        before = np.array([r["descent_ls_before"] for r in rows])
        after = np.array([r["descent_ls_after"] for r in rows])
        for j in range(before.shape[1]):
            print(f"  descent at level {depth - 1 - j}: mean L_s {before[:, j].mean():.6f} -> "
                  f"{after[:, j].mean():.6f}, lower on "
                  f"{np.mean(after[:, j] < before[:, j]):.0%} of {len(rows)} pairs", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[ACCEPT["seed"]],
                   help="seeds to run (default: the acceptance seed)")
    p.add_argument("--out", default="accept_probe.json", help="path of the per-pair rows")
    p.add_argument("--descent", nargs=2, metavar=("STEPS", "LR"),
                   help="pixel descent on each finer level's objective: STEPS Adam steps at LR")
    args = p.parse_args(argv)
    descent = None if args.descent is None else (int(args.descent[0]), float(args.descent[1]))
    rows = []
    for seed in args.seeds:
        model, cfg, pairs, train_s = train_model(seed)
        seed_rows = pair_rows(seed, model, cfg, pairs, descent)
        report(seed, seed_rows, train_s)
        rows += seed_rows
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
