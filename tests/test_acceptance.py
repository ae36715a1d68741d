"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

The trend, runtime-application, and fixed-point criteria share one trained
3-level model (96x96, channels 16/32/64/128, 64x16 synthetic corpus, fixed
seed); training it takes the bulk of this suite's runtime.
"""

import time

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import checkpoint, gradcheck
from restyle.autodiff import ConvParams, Tensor
from restyle.config import RunConfig
from restyle.corpus import CorpusSpec, make_corpus, make_test_pairs
from restyle.encoder import compute_errors, make_encoder
from restyle.stylizer import PyramidModel, mix_bundles, refine_external, stylize, \
    stylize_alpha
from restyle.trainer import (LossWeights, combine_losses, evaluate, full_resolution_losses,
                             make_model_encoder, train_level)
from restyle.transition import NonLocalParams, nonlocal_block

from test_autodiff import conv2d_loops
from test_transition import nonlocal_loops

pytestmark = pytest.mark.acceptance

# acceptance training configuration: paper-schedule ratios for the style
# weights, scaled to this artifact's loss normalization (see README)
ACCEPT = dict(seed=7, image_size=96, channels=(16, 32, 64, 128), levels=3,
              lr=1e-3, batch=2, lambda_ps=(60.0, 300.0, 480.0),
              content_count=64, style_count=16)
STEPS_PER_LEVEL = {3: 700, 2: 700, 1: 600}
TEST_PAIRS = 20


def report(number, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


def train_model(seed=ACCEPT["seed"]):
    """The acceptance model, its level-3 config, its test pairs and the training
    seconds; `seed` draws the model, the corpus and the test pairs."""
    cfg_by_level = {k: RunConfig(steps=s, **dict(ACCEPT, seed=seed)).validate()
                    for k, s in STEPS_PER_LEVEL.items()}
    base = cfg_by_level[3]
    assert all(s <= 2000 for s in STEPS_PER_LEVEL.values())
    enc = make_model_encoder(base)
    spec = CorpusSpec(seed=base.seed, size=base.image_size,
                      content_count=base.content_count, style_count=base.style_count)
    contents, styles = make_corpus(spec)
    t0 = time.time()
    frozen = {}
    for level in (3, 2, 1):
        result = train_level(cfg_by_level[level], level, enc, dict(frozen),
                             contents=contents, styles=styles)
        frozen[level] = result.params.set_trainable(False)
    train_seconds = time.time() - t0
    model = PyramidModel(encoder=enc, levels=[frozen[1], frozen[2], frozen[3]])
    pairs = make_test_pairs(spec, TEST_PAIRS)
    return model, base, pairs, train_seconds


@pytest.fixture(scope="module")
def trained():
    return train_model()


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_suite()
    elapsed = time.time() - t0
    ok = all(passed for _, _, passed in results) and elapsed < 180
    worst = max(err for _, err, _ in results)
    assert report(1, ok, f"gradient suite: {len(results)} ops, worst rel err {worst:.2e}, "
                         f"{elapsed:.0f}s (< 180s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    c = 3
    worst_nl = 0.0
    shapes = [(h, w) for h in range(1, 9) for w in range(1, 9)]
    shapes += [(1, 64), (64, 1), (2, 32), (32, 2), (4, 16), (16, 4)]
    for h, w in shapes:
        assert h * w <= 64
        p = NonLocalParams(
            psi_h=ConvParams(weight=Tensor(rng.standard_normal((c, c, 1, 1)).astype(np.float32))),
            psi_u=ConvParams(weight=Tensor(rng.standard_normal((c, c, 1, 1)).astype(np.float32))),
            psi_g=ConvParams(weight=Tensor(rng.standard_normal((c, c, 1, 1)).astype(np.float32))))
        err = rng.standard_normal((c, h, w)).astype(np.float32)
        f_in = rng.standard_normal((c, h, w)).astype(np.float32)
        got = nonlocal_block(Tensor(err), Tensor(f_in), p).data
        want = nonlocal_loops(err.astype(np.float64), f_in.astype(np.float64),
                              p.psi_h.weight.data.astype(np.float64),
                              p.psi_u.weight.data.astype(np.float64),
                              p.psi_g.weight.data.astype(np.float64))
        worst_nl = max(worst_nl, float(np.max(np.abs(got - want))))
    ok_nl = worst_nl < 1e-5

    worst_conv = 0.0
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        c_in, c_out = int(r.integers(1, 4)), int(r.integers(1, 5))
        k = int(r.choice([1, 3]))
        h, w = int(r.integers(k, 10)), int(r.integers(k, 10))
        pad = int(r.integers(0, 2))
        x = r.standard_normal((c_in, h, w)).astype(np.float32)
        wgt = r.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        got = ad.conv2d(Tensor(x), ConvParams(weight=Tensor(wgt), padding=pad)).data
        want = conv2d_loops(x.astype(np.float64), wgt.astype(np.float64), None, 1, pad)
        worst_conv = max(worst_conv, float(np.max(np.abs(got - want))))
    ok_conv = worst_conv < 1e-5
    assert report(2, ok_nl and ok_conv,
                  f"oracle equivalence: attention over {len(shapes)} shapes (N<=64) "
                  f"max dev {worst_nl:.2e}; conv2d over 20 instances max dev {worst_conv:.2e}")


def test_criterion_3_error_identities():
    enc = make_encoder(seed=13)
    rng = np.random.default_rng(3)
    c, s, cur = (rng.random((24, 24, 3)).astype(np.float32) for _ in range(3))
    zero_content = compute_errors(c, s, c, enc)
    ok = float(np.max(np.abs(zero_content.content.data))) <= 1e-6
    zero_style = compute_errors(c, s, s, enc)
    ok &= all(float(np.max(np.abs(d.data))) <= 1e-6 for d in zero_style.style)
    fwd = compute_errors(c, s, cur, enc)
    rev_c = compute_errors(cur, s, c, enc)
    rev_s = compute_errors(c, cur, s, enc)
    ok &= float(np.max(np.abs(fwd.content.data + rev_c.content.data))) <= 1e-6
    for a, b in zip(fwd.style, rev_s.style):
        ok &= float(np.max(np.abs(a.data + b.data))) <= 1e-6
    assert report(3, bool(ok), "error identities: self-errors zero, swap antisymmetry exact")


def test_criterion_4_refinement_trend(trained):
    model, cfg, pairs, train_seconds = trained
    result = evaluate(model, pairs)
    mean_ls = result.style
    strictly_decreasing = bool(mean_ls[0] > mean_ls[1] > mean_ls[2])
    monotone = (result.per_pair_style[:, 0] > result.per_pair_style[:, 1]) & \
               (result.per_pair_style[:, 1] > result.per_pair_style[:, 2])
    frac = float(monotone.mean())
    ok = strictly_decreasing and frac >= 0.8 and train_seconds <= 45 * 60
    assert report(4, ok,
                  f"refinement trend: mean L_s {mean_ls[0]:.5f} -> {mean_ls[1]:.5f} -> "
                  f"{mean_ls[2]:.5f} (strictly decreasing: {strictly_decreasing}), "
                  f"monotone on {frac:.0%} of {len(pairs)} pairs (>= 80%), "
                  f"training {train_seconds/60:.1f} min (<= 45)")


def test_criterion_5_lambda_schedule():
    weights = LossWeights.from_config(RunConfig())
    ok = weights.content == 1.0 and weights.tv == 1e-6 \
        and weights.style_per_level == (1.0, 5.0, 8.0)
    l_pc, l_tv = Tensor(np.float32(0.37)), Tensor(np.float32(0.011))
    for level, lam in ((1, 1.0), (2, 5.0), (3, 8.0)):
        base = combine_losses(l_pc, Tensor(np.float32(0.25)), l_tv, level, weights)
        bump = combine_losses(l_pc, Tensor(np.float32(1.25)), l_tv, level, weights)
        ok &= abs((bump.item() - base.item()) - lam) < 1e-5
    base = combine_losses(l_pc, Tensor(np.float32(0.25)), l_tv, 1, weights)
    bump_pc = combine_losses(Tensor(np.float32(1.37)), Tensor(np.float32(0.25)), l_tv, 1, weights)
    ok &= abs((bump_pc.item() - base.item()) - 1.0) < 1e-5
    bump_tv = combine_losses(l_pc, Tensor(np.float32(0.25)), Tensor(np.float32(1.011)), 1, weights)
    ok &= abs((bump_tv.item() - base.item()) - 1e-6) < 1e-8
    assert report(5, bool(ok), "lambda schedule: defaults (1, 1e-6, (1,5,8)) verified by "
                               "linear perturbation at every level")


def test_criterion_6_runtime_applications(trained):
    model, cfg, pairs, _ = trained
    c, s = pairs[0]
    plain = stylize(c, s, model)
    alpha_one = stylize_alpha(c, s, model, alpha=1.0)
    bit_identical = plain.final.tobytes() == alpha_one.final.tobytes() and all(
        a.tobytes() == b.tobytes()
        for a, b in zip(plain.intermediates, alpha_one.intermediates))

    enc = model.encoder
    cur = np.random.default_rng(6).random(c.shape).astype(np.float32)
    toward_style = compute_errors(c, s, cur, enc)
    toward_content = compute_errors(c, c, cur, enc)
    mixed = mix_bundles(toward_style, toward_content, 0.5)
    dev = float(np.max(np.abs(
        mixed.content.data - (toward_style.content.data + toward_content.content.data) / 2)))
    for m, a, b in zip(mixed.style, toward_style.style, toward_content.style):
        dev = max(dev, float(np.max(np.abs(m.data - (a.data + b.data) / 2))))
    halfway_ok = dev <= 1e-6

    non_increase = 0
    for c_i, s_i in pairs:
        base = stylize(c_i, s_i, model).final
        _, ls_base = full_resolution_losses(base, c_i, s_i, enc)
        refined = refine_external(base, c_i, s_i, model, level=1).final
        _, ls_ref = full_resolution_losses(refined, c_i, s_i, enc)
        non_increase += ls_ref <= ls_base + 1e-9
    frac = non_increase / len(pairs)
    ok = bit_identical and halfway_ok and frac >= 0.8
    assert report(6, bool(ok),
                  f"runtime applications: alpha=1 bit-identical: {bit_identical}; "
                  f"alpha=0.5 bundle mean dev {dev:.2e} (<= 1e-6); external refinement "
                  f"non-increasing style loss on {frac:.0%} of {len(pairs)} pairs (>= 80%)")


def test_criterion_7_persistence_determinism(tmp_path):
    rng = np.random.default_rng(7)
    table = {f"t{i}": rng.standard_normal((i + 1, 3)).astype(np.float32) for i in range(4)}
    blob = checkpoint.dumps(table)
    roundtrip_ok = checkpoint.dumps(checkpoint.loads(blob)) == blob

    from restyle.cli import main
    tiny = ("seed = 21\nimage_size = 32\nchannels = 8,10,12,14\nlevels = 2\n"
            "steps = 8\nbatch = 2\nlambda_ps = 60,300\ncontent_count = 6\n"
            "style_count = 4\n")
    artifacts = []
    for name in ("runA", "runB"):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(tiny + f"model_dir = {tmp_path / name}\n")
        for level in (2, 1):
            assert main(["train", "--config", str(cfg_path), "--level", str(level)]) == 0
        blobs = []
        for fname in ("level2.ckpt", "level1.ckpt", "level2.log", "level1.log",
                      "encoder.ckpt"):
            blobs.append((tmp_path / name / fname).read_bytes())
        artifacts.append(blobs)
    reruns_ok = artifacts[0] == artifacts[1]
    ok = roundtrip_ok and reruns_ok
    assert report(7, bool(ok), f"persistence: checkpoint round-trip bit-identical: "
                               f"{roundtrip_ok}; two training runs byte-identical "
                               f"(checkpoints and loss logs): {reruns_ok}")


def test_criterion_8_fixed_point(trained):
    model, cfg, pairs, _ = trained
    mads = []
    for c, _ in pairs:
        out = stylize(c, c, model).final
        mads.append(float(np.mean(np.abs(out - c))))
    mean_mad = float(np.mean(mads))
    ok = mean_mad < 0.02
    assert report(8, ok, f"fixed point: stylize(content, content) mean abs deviation "
                         f"{mean_mad:.4f} over {len(pairs)} images (< 0.02), "
                         f"worst {max(mads):.4f}")
