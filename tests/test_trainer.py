"""Loss oracles, weighting conformance, optimizer, and smoke training."""

import errno
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import checkpoint, gradcheck
from restyle.autodiff import Tensor
from restyle.config import RunConfig, format_config, read_text
from restyle.corpus import CorpusSpec, make_corpus
from restyle.encoder import ErrorBundle, encode, gram_stack, make_encoder
from restyle.errors import CheckpointError, ConfigError, ContractError, TrainingDiverged
from restyle.images import downsample, to_chw, upsample
from restyle.stylizer import PyramidModel, start_estimate, stylize
from restyle import stylizer, trainer
from restyle.trainer import (Adam, LossWeights, TargetCache, TrainResult, combine_losses,
                             content_loss, cosine_lr, evaluate, full_resolution_losses,
                             image_targets, init_level_params, level_terms, probe_cases,
                             recovering_clamp01, sample_objective, style_loss, train_level,
                             tv_loss)
from restyle.transition import RESIDUAL_INIT_RMS, etnet_forward, make_level_params, \
    run_decoder

from test_encoder import rand_img

CHANNELS = (4, 6, 8, 10)


@pytest.fixture(scope="module")
def enc():
    return make_encoder(seed=2, channels=CHANNELS)


def msq(a, b):
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


def stage4(img, enc):
    return encode(img, enc).stages[-1].data


def grams(img, enc):
    return [g.data for g in gram_stack(encode(img, enc))]


class TestContentLoss:
    def test_zero_on_identity_at_coarsest(self, enc):
        img = rand_img(0, 16)
        assert content_loss(img, img, level=3, depth=3, enc=enc).item() == 0.0

    def test_coarsest_level_has_single_term(self, enc):
        cs, c = rand_img(1, 16), rand_img(2, 16)
        got = content_loss(cs, c, level=3, depth=3, enc=enc).item()
        want = msq(stage4(cs, enc), stage4(c, enc))
        assert got == pytest.approx(want, abs=1e-5)

    def test_full_pyramid_matches_term_oracle(self, enc):
        cs, c = rand_img(3, 32), rand_img(4, 32)
        got = content_loss(cs, c, level=1, depth=3, enc=enc).item()
        want = 0.0
        cs_j, c_j = cs, c
        for _ in range(3):
            want += msq(stage4(cs_j, enc), stage4(c_j, enc))
            cs_j, c_j = downsample(cs_j), downsample(c_j)
        assert got == pytest.approx(want, rel=1e-5)

    def test_size_mismatch_raises(self, enc):
        with pytest.raises(ContractError):
            content_loss(rand_img(5, 16), rand_img(6, 32), level=1, depth=1, enc=enc)

    def test_encodes_the_target_once_for_both_roles(self, enc, monkeypatch):
        # two levels of the stylized image, two of the target: 4 encoder passes
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return encode(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("restyle") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is encode:
                        monkeypatch.setattr(mod, attr, counting)
        content_loss(rand_img(7, 32), rand_img(8, 32), level=1, depth=2, enc=enc)
        assert len(calls) == 4


class TestStyleLoss:
    def test_zero_on_identity_at_coarsest(self, enc):
        img = rand_img(7, 16)
        assert style_loss(img, img, level=3, depth=3, enc=enc).item() == 0.0

    def test_scaling_changes_loss(self, enc):
        img = rand_img(8, 16)
        scaled = np.clip(img * 0.5, 0, 1).astype(np.float32)
        assert style_loss(scaled, img, level=3, depth=3, enc=enc).item() > 0.0

    def test_matches_term_oracle(self, enc):
        cs, s = rand_img(9, 32), rand_img(10, 32)
        got = style_loss(cs, s, level=2, depth=3, enc=enc).item()
        want = sum(msq(a, b) for a, b in zip(grams(cs, enc), grams(s, enc)))
        want += msq(grams(downsample(cs), enc)[-1], grams(downsample(s), enc)[-1])
        assert got == pytest.approx(want, rel=1e-5)


class TestTvLoss:
    def test_constant_zero(self):
        assert tv_loss(np.full((4, 4, 3), 0.5, dtype=np.float32)).item() == 0.0

    def test_single_difference(self):
        img = Tensor(np.array([[[0.0, 1.0]]], dtype=np.float32))  # (1,1,2)
        assert tv_loss(img).item() == pytest.approx(1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.random((3, 5, 6)).astype(np.float32)
        total, count = 0.0, 0
        for c in range(3):
            for y in range(5):
                for xx in range(6):
                    if xx + 1 < 6:
                        total += (x[c, y, xx + 1] - x[c, y, xx]) ** 2
                        count += 1
                    if y + 1 < 5:
                        total += (x[c, y + 1, xx] - x[c, y, xx]) ** 2
                        count += 1
        got = tv_loss(Tensor(x)).item()
        assert got == pytest.approx(total / count, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        def build(rng):
            x = Tensor(rng.random((2, 4, 5)), requires_grad=True, dtype=np.float64)

            def forward():
                return tv_loss(x)

            return [x], forward
        assert gradcheck.check_gradients(build, seed) < 1e-4


class TestTotalLoss:
    def test_all_zero_components(self, enc):
        weights = LossWeights(style_per_level=(1.0, 5.0, 8.0))
        constant = np.full((16, 16, 3), 0.25, dtype=np.float32)
        targets = image_targets(constant, constant, 1, enc)
        stylized = Tensor(to_chw(constant))
        loss = combine_losses(*level_terms(stylized, targets, enc), tv_loss(stylized), 3, weights)
        assert loss.item() == 0.0

    def test_linear_in_style_component(self):
        weights = LossWeights(style_per_level=(1.0, 5.0, 8.0))
        l_pc = Tensor(np.float32(0.3))
        l_tv = Tensor(np.float32(0.01))
        for level, lam in ((1, 1.0), (2, 5.0), (3, 8.0)):
            base = combine_losses(l_pc, Tensor(np.float32(0.2)), l_tv, level, weights)
            bumped = combine_losses(l_pc, Tensor(np.float32(1.2)), l_tv, level, weights)
            assert bumped.item() - base.item() == pytest.approx(lam, rel=1e-5)

    def test_default_schedule(self):
        weights = LossWeights.from_config(RunConfig())
        assert weights.content == 1.0
        assert weights.tv == 1e-6
        assert weights.style_per_level == (1.0, 5.0, 8.0)

    def test_zero_pair_term_weighted(self):
        weights = LossWeights(style_per_level=(1.0,), zero_pair=0.1)
        zero = Tensor(np.float32(0.0))
        quarter = Tensor(np.float32(0.25))
        base = combine_losses(zero, zero, zero, 1, weights, zero_sq=zero)
        bumped = combine_losses(zero, zero, zero, 1, weights, zero_sq=quarter)
        assert bumped.item() - base.item() == pytest.approx(0.025, rel=1e-5)

    def test_float32_terms_sum_in_float64(self):
        weights = LossWeights(style_per_level=(1.0,), tv=1e-6)
        terms = [Tensor(np.float32(v), requires_grad=True) for v in (0.37, 0.25, 0.011, 0.5)]
        total = combine_losses(*terms[:3], 1, weights, zero_sq=terms[3])
        assert total.dtype == np.float64
        want = sum(t.item() * w for t, w in zip(terms, (1.0, 1.0, 1e-6, 0.1)))
        assert total.item() == want
        ad.backward(total)
        for t, w in zip(terms, (1.0, 1.0, 1e-6, 0.1)):
            assert t.grad.dtype == np.float32
            assert t.grad == np.float32(w)

    def test_sample_objective_is_the_sum_of_its_parts(self, enc):
        """The training objective is `combine_losses` of `level_terms` and
        `tv_loss` on the recovering clamp, and of the mean square of the
        decoder's residual on a zero error bundle, bit for bit."""
        params = make_level_params([3, 1], channels=CHANNELS)
        weights = LossWeights(style_per_level=(1.0, 5.0))
        targets = image_targets(Tensor(to_chw(rand_img(40, 32))), Tensor(to_chw(rand_img(41, 32))),
                                2, enc)
        icing = Tensor(to_chw(rand_img(42, 32)))
        got = sample_objective(icing, targets, params, enc, 1, weights)

        c_stack, s_grams = targets[0][0][0], targets[1][0][1]
        stylized = recovering_clamp01(ad.add(icing, etnet_forward(c_stack, s_grams, icing,
                                                                  params, enc)))
        zero = ErrorBundle(content=Tensor(np.zeros_like(c_stack.stages[-1].data)),
                           style=tuple(Tensor(np.zeros((f.shape[0],) * 2, dtype=np.float32))
                                       for f in c_stack.stages))
        zero_res, _ = run_decoder(zero, c_stack, params)
        l_pc, l_ps = level_terms(stylized, targets, enc)
        l_tv = tv_loss(stylized)
        total = combine_losses(l_pc, l_ps, l_tv, 1, weights,
                               zero_sq=ad.mean_all(ad.mul(zero_res, zero_res)))
        for a, b in zip(got, (total, l_pc, l_ps, l_tv)):
            assert a.dtype == b.dtype and a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_through_losses(self, seed, enc):
        enc64 = enc.astype(np.float64)
        weights = LossWeights(style_per_level=(1.0, 5.0, 8.0))

        def build(rng):
            cs = Tensor(rng.random((3, 16, 16)), requires_grad=True, dtype=np.float64)
            c = Tensor(rng.random((3, 16, 16)), dtype=np.float64)
            s = Tensor(rng.random((3, 16, 16)), dtype=np.float64)

            def forward():
                return combine_losses(*level_terms(cs, image_targets(c, s, 2, enc64), enc64),
                                      tv_loss(cs), 2, weights)

            return [cs], forward
        assert gradcheck.check_gradients(build, seed, max_coords=40) < 1e-4


class TestRecoveringClamp:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_value_and_gradient_mask(self, sign):
        x = np.array([-0.5, -0.5, 0.0, 0.3, 1.0, 1.5, 1.5], dtype=np.float32)
        g = sign * np.array([-2.0, 3.0, 5.0, -7.0, 11.0, 13.0, -17.0], dtype=np.float32)

        def run(op):
            t = Tensor(x, requires_grad=True)
            out = op(t)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            return out.data, t.grad

        exact_value, exact = run(ad.clamp01)
        value, got = run(recovering_clamp01)
        np.testing.assert_array_equal(value, exact_value)
        inside = (x >= 0) & (x <= 1)
        np.testing.assert_array_equal(got[inside], exact[inside])
        below, above = x < 0, x > 1
        np.testing.assert_array_equal(got[below], np.where(g[below] < 0, g[below], 0))
        np.testing.assert_array_equal(got[above], np.where(g[above] > 0, g[above], 0))


class TestAdam:
    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam([x])
        for step in range(400):
            x.zero_grad()
            d = ad.sub(x, Tensor(target))
            ad.backward(ad.mean_all(ad.mul(d, d)))
            opt.step(0.05)
        np.testing.assert_allclose(x.data, target, atol=1e-2)

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
        assert cosine_lr(1e-3, 100, 100) == pytest.approx(0.0, abs=1e-12)


def tiny_config(**overrides):
    base = dict(seed=5, image_size=32, channels=CHANNELS, levels=2, lr=1e-3,
                steps=4, batch=2, lambda_ps=(1.0, 5.0), content_count=4, style_count=2)
    base.update(overrides)
    return RunConfig(**base).validate()


def test_failed_snapshot_write_leaves_no_config(tmp_path, monkeypatch):
    """A config snapshot that fails to write leaves no part of itself behind, so
    the next `init_model_dir` writes it whole instead of rejecting a torn one."""
    cfg = tiny_config(model_dir=str(tmp_path / "m"))
    enc = trainer.make_model_encoder(cfg)

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", no_space)
        with pytest.raises(OSError) as info:
            trainer.init_model_dir(cfg.model_dir, cfg, enc)
    snap_path = os.path.join(cfg.model_dir, trainer.CONFIG_SNAPSHOT)
    assert info.value.filename == snap_path
    assert os.listdir(cfg.model_dir) == []
    trainer.init_model_dir(cfg.model_dir, cfg, enc)
    assert read_text(snap_path) == format_config(cfg)


class TestLoadModelDir:
    @pytest.fixture
    def model_dir(self, tmp_path):
        """A model directory of `tiny_config` with seeded, untrained levels."""
        cfg = tiny_config(model_dir=str(tmp_path / "m"))
        trainer.init_model_dir(cfg.model_dir, cfg, trainer.make_model_encoder(cfg))
        for level in range(1, cfg.levels + 1):
            trainer.save_level_checkpoint(
                os.path.join(cfg.model_dir, trainer.level_file(level)),
                make_level_params([cfg.seed, level], channels=cfg.channels))
        return cfg.model_dir

    def test_tensors_are_the_checkpoint_arrays(self, model_dir):
        model, cfg = trainer.load_model_dir(model_dir)
        files = [trainer.ENCODER_FILE] + [trainer.level_file(k) for k in range(1, cfg.levels + 1)]
        for params, name in zip([model.encoder, *model.levels], files):
            state = checkpoint.read(os.path.join(model_dir, name))
            named = params.named_tensors()
            assert list(named) == list(state)
            for key, t in named.items():
                assert t.dtype == np.float32 and t.data.tobytes() == state[key].tobytes()
                assert t.data.flags.writeable and t.data.flags.c_contiguous
                assert not t.requires_grad

    @pytest.mark.parametrize("fault", ["shape", "missing", "extra", "nan", "inf", "malformed"])
    def test_bad_level_checkpoint_names_file(self, model_dir, fault):
        path = os.path.join(model_dir, trainer.level_file(2))
        state = checkpoint.read(path)
        head = state["head.weight"].copy()
        if fault == "shape":
            state["head.weight"] = head[:, :, :1, :1]
        elif fault == "missing":
            del state["head.weight"]
        elif fault == "extra":
            state["head.bias"] = head[:, 0, 0, 0]
        elif fault in ("nan", "inf"):
            head[0, 0, 1, 1] = float(fault)
            state["head.weight"] = head
        checkpoint.write(path, state)
        if fault == "malformed":
            with open(path, "r+b") as fh:
                fh.write(b"XXXX")
        with pytest.raises(CheckpointError) as info:
            trainer.load_model_dir(model_dir)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        if fault in ("shape", "nan", "inf"):
            assert "head.weight" in message


class TestTrainLevel:
    def test_zero_steps_keeps_initialization(self, enc):
        cfg = tiny_config(steps=0)
        result = train_level(cfg, 2, enc, frozen={})
        contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                                  content_count=cfg.content_count,
                                                  style_count=cfg.style_count))
        init = init_level_params(cfg, 2, enc, contents, styles)
        for (na, ta), (nb, tb) in zip(result.params.named_tensors().items(),
                                      init.named_tensors().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        assert result.log_lines == []

    def test_missing_coarser_level_rejected(self, enc):
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="level 2"):
            train_level(cfg, 1, enc, frozen={})

    def test_non_finite_gradient_raises(self, enc):
        # finite losses, but the float64 loss head's gradient overflows float32
        cfg = tiny_config(steps=1, lambda_pc=1e39)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="gradient"):
                train_level(cfg, 2, enc, frozen={})

    def test_deterministic_runs(self, enc):
        cfg = tiny_config(steps=3)
        a = train_level(cfg, 2, enc, frozen={})
        b = train_level(cfg, 2, enc, frozen={})
        assert a.log_lines == b.log_lines
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_loss_decreases_on_smoke_run(self, enc):
        cfg = tiny_config(steps=60, batch=2, content_count=4, style_count=2, image_size=32)
        result = train_level(cfg, 2, enc, frozen={})
        first = float(result.log_lines[0].split("\t")[4])
        last = float(result.log_lines[-1].split("\t")[4])
        assert last < first

    def test_saturated_outputs_recover(self, enc):
        # the coarsest level's raw output (start estimate plus residual)
        # should move into [0, 1] as it trains
        cfg = tiny_config(steps=60)
        contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                                  content_count=cfg.content_count,
                                                  style_count=cfg.style_count))

        def out_of_range(params):
            shares = []
            for c in contents:
                for s in styles:
                    c2, s2 = downsample(c), downsample(s)
                    icing = start_estimate(c2)
                    raw = to_chw(icing) + etnet_forward(c2, s2, icing, params, enc).data
                    shares.append(np.mean((raw < 0) | (raw > 1)))
            return float(np.mean(shares))

        before = out_of_range(init_level_params(cfg, 2, enc, contents, styles))
        after = out_of_range(train_level(cfg, 2, enc, frozen={}).params)
        assert after < before

    def test_log_format(self, enc):
        cfg = tiny_config(steps=2)
        result = train_level(cfg, 2, enc, frozen={})
        for i, line in enumerate(result.log_lines):
            parts = line.split("\t")
            assert int(parts[0]) == i
            assert len(parts) == 5
            for p in parts[1:]:
                float(p)


@pytest.mark.parametrize("size, levels", [(96, 3), (32, 2)])
def test_calibrated_decoder_maps_have_unit_rms(enc, size, levels):
    """On its own probes, every calibrated level's decoder gives error and
    residual-feature maps of pooled RMS 1 and a residual of RESIDUAL_INIT_RMS.
    The finest block makes no error map, so there is one error site fewer."""
    cfg = tiny_config(image_size=size, levels=levels, lambda_ps=(1.0,) * levels)
    contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                              content_count=cfg.content_count,
                                              style_count=cfg.style_count))

    def pooled_rms(maps):
        return np.sqrt(np.mean([np.mean(m.data.astype(np.float64) ** 2) for m in maps]))

    for level in range(1, levels + 1):
        params = init_level_params(cfg, level, enc, contents, styles)
        runs = [run_decoder(bundle, f_in, params)
                for bundle, f_in in probe_cases(cfg, level, enc, contents, styles)]
        # the deep map, then one per block
        for key, sites in (("err", len(CHANNELS) - 1), ("d", len(CHANNELS))):
            assert all(len(internals[key]) == sites for _, internals in runs)
            for site in range(sites):
                got = pooled_rms([internals[key][site] for _, internals in runs])
                assert got == pytest.approx(1.0, rel=1e-4), (level, key, site)
        got = pooled_rms([residual for residual, _ in runs])
        assert got == pytest.approx(RESIDUAL_INIT_RMS, rel=1e-4), level


def test_evaluate_encodes_targets_once_per_pair(enc, monkeypatch):
    """evaluate encodes a pair's content and style once, plus each intermediate
    once, and its tables equal `full_resolution_losses` bit for bit."""
    depth = 3
    model = PyramidModel(encoder=enc, levels=[make_level_params([3, k], channels=CHANNELS)
                                              for k in range(1, depth + 1)])
    pairs = [(rand_img(20 + i, 32), rand_img(30 + i, 32)) for i in range(2)]
    calls = []
    encode_ = trainer.encode
    monkeypatch.setattr(trainer, "encode", lambda *a: calls.append(1) or encode_(*a))
    result = evaluate(model, pairs)
    assert len(calls) == (depth + 2) * len(pairs)
    monkeypatch.undo()
    for row, (content, style) in enumerate(pairs):
        for j, img in enumerate(stylize(content, style, model).intermediates):
            for _ in range(depth - j - 1):
                img = upsample(img)
            l_c, l_s = full_resolution_losses(img, content, style, enc)
            assert result.per_pair_content[row, j] == l_c
            assert result.per_pair_style[row, j] == l_s


def test_frozen_prefix_uses_cached_targets(enc, monkeypatch):
    """The prefix is the stylizer's walk toward the cache's encodings of the
    pair's images: its refinements are, bit for bit, `stylize`'s intermediates
    from the images themselves, over frozen level 2 of a 2-level config and
    over frozen levels 3 and 2 of a 3-level one."""
    for levels in (2, 3):
        cfg = tiny_config(levels=levels, lambda_ps=(1.0, 5.0, 8.0)[:levels])
        contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                                  content_count=cfg.content_count,
                                                  style_count=cfg.style_count))
        params = init_level_params(cfg, 1, enc, contents, styles)
        frozen = {j: init_level_params(cfg, j, enc, contents, styles).set_trainable(False)
                  for j in range(2, levels + 1)}
        cache = TargetCache(enc, cfg.levels, contents, styles)
        outputs = []
        refine = stylizer.refine_level
        monkeypatch.setattr(stylizer, "refine_level",
                            lambda *a: outputs.append(refine(*a)) or outputs[-1])
        trainer._train_sample(cfg, 1, enc, frozen, params, cache, LossWeights.from_config(cfg),
                              ("c", 1), ("s", 0))
        monkeypatch.undo()
        model = PyramidModel(encoder=enc, levels=[params, *(frozen[j] for j in frozen)])
        want = stylize(cache.level_images("c", 1)[0], cache.level_images("s", 0)[0],
                       model).intermediates[:levels - 1]
        assert len(outputs) == levels - 1
        assert [o.tobytes() for o in outputs] == [w.tobytes() for w in want]


def sequential_training(cfg, level, enc, frozen, contents, styles):
    """train_level's schedule with the samples of each batch run one after the
    other in this thread: (params, log lines)."""
    params = init_level_params(cfg, level, enc, contents, styles)
    opt = Adam(params.tensors())
    cache = TargetCache(enc, cfg.levels, contents, styles)
    weights = LossWeights.from_config(cfg)
    rng = np.random.default_rng([cfg.seed, 100 + level])
    lines = []
    n = 0
    for step in range(cfg.steps):
        opt.zero_grad()
        sums = np.zeros(4)
        for _ in range(cfg.batch):
            ci, si = int(rng.integers(len(contents))), int(rng.integers(len(styles)))
            if n % 3 == 2:
                keys = (("c", ci),) * 2 if (n // 3) % 2 == 0 else (("s", si),) * 2
            else:
                keys = ("c", ci), ("s", si)
            n += 1
            sums += trainer._train_sample(cfg, level, enc, frozen, params, cache, weights, *keys)
        for t in params.tensors():
            if t.grad is not None:
                t.grad /= cfg.batch
        opt.step(cosine_lr(cfg.lr, step, cfg.steps))
        lines.append(f"{step}\t" + "\t".join(repr(float(v)) for v in sums / cfg.batch))
    return params, lines


class TestConcurrentBatch:
    """train_level runs a batch's samples two at a time on two threads."""

    @pytest.fixture
    def setting(self, enc, monkeypatch):
        """A tiny two-level setting whose levels both run concurrently, with a
        record of the thread and BLAS thread count of every sample."""
        monkeypatch.setattr(trainer, "CONCURRENT_MIN_SIDE", 0)
        seen = []
        blas = trainer._blas_threads()
        sample = trainer._train_sample

        def recorded(*args):
            seen.append((threading.current_thread() is threading.main_thread(),
                         blas[0]() if blas else None))
            return sample(*args)

        monkeypatch.setattr(trainer, "_train_sample", recorded)
        cfg = tiny_config()
        contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                                  content_count=cfg.content_count,
                                                  style_count=cfg.style_count))
        frozen = {2: init_level_params(cfg, 2, enc, contents, styles).set_trainable(False)}
        return dict(enc=enc, contents=contents, styles=styles, frozen=frozen, seen=seen,
                    blas=blas, sample=sample)

    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_matches_sequential_samples(self, setting, batch):
        if setting["blas"] is None:
            pytest.skip("numpy's OpenBLAS thread setter not found: batches run in order")
        cfg = tiny_config(batch=batch, steps=3)
        got = train_level(cfg, 1, setting["enc"], dict(setting["frozen"]),
                          contents=setting["contents"], styles=setting["styles"])
        workers = [not main for main, _ in setting["seen"]]
        assert len(workers) == 3 * batch
        assert sum(workers) == 3 * (batch // 2)
        if batch > 1:
            assert all(threads == 1 for _, threads in setting["seen"])
        want, lines = sequential_training(cfg, 1, setting["enc"], dict(setting["frozen"]),
                                          setting["contents"], setting["styles"])
        assert got.log_lines == lines
        for (name, a), b in zip(got.params.named_tensors().items(), want.tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_matches_sequential_under_fast_thread_switching(self, setting):
        """Threads switched every 10 us, so a shared gradient slot or an
        unordered sum would show as changed bits."""
        if setting["blas"] is None:
            pytest.skip("numpy's OpenBLAS thread setter not found: batches run in order")
        cfg = tiny_config(batch=4, steps=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = train_level(cfg, 1, setting["enc"], dict(setting["frozen"]),
                              contents=setting["contents"], styles=setting["styles"])
        finally:
            sys.setswitchinterval(interval)
        want, lines = sequential_training(cfg, 1, setting["enc"], dict(setting["frozen"]),
                                          setting["contents"], setting["styles"])
        assert got.log_lines == lines
        for a, b in zip(got.params.tensors(), want.tensors()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_blas_threads_restored(self, setting, monkeypatch):
        blas = setting["blas"]
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread setter not found")
        before = blas[0]()
        args = (setting["enc"], dict(setting["frozen"]))
        kwargs = dict(contents=setting["contents"], styles=setting["styles"])
        train_level(tiny_config(steps=1), 1, *args, **kwargs)
        assert blas[0]() == before
        # the worker thread keeps the caller's np.errstate: no overflow warning
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDiverged, match="gradient"):
                train_level(tiny_config(steps=1, lambda_pc=1e39), 1, *args, **kwargs)
        assert blas[0]() == before

        def failing(*a):
            if threading.current_thread() is not threading.main_thread():
                raise ContractError("sample failed")
            return setting["sample"](*a)

        monkeypatch.setattr(trainer, "_train_sample", failing)
        with pytest.raises(ContractError, match="sample failed"):
            train_level(tiny_config(steps=1), 1, *args, **kwargs)
        assert blas[0]() == before
