"""Pyramid orchestration and runtime-application tests."""

import os
import sys

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import encoder as enc_mod
from restyle import images, trainer
from restyle.config import RunConfig
from restyle.encoder import compute_errors, make_encoder
from restyle.errors import ContractError
from restyle.images import from_chw
from restyle.stylizer import (PyramidModel, _level_pairs, mix_bundles, refine_external,
                              refine_level, stylize, stylize_alpha)
from restyle.transition import etnet_forward, make_level_params

CHANNELS = (4, 6, 8, 10)


@pytest.fixture(scope="module")
def model():
    enc = make_encoder(seed=1, channels=CHANNELS)
    levels = [make_level_params(seed=30 + k, channels=CHANNELS, trainable=False)
              for k in range(3)]
    return PyramidModel(encoder=enc, levels=levels)


@pytest.fixture(scope="module")
def zero_model():
    enc = make_encoder(seed=1, channels=CHANNELS)
    levels = []
    for k in range(3):
        p = make_level_params(seed=30 + k, channels=CHANNELS, trainable=False)
        for t in p.tensors():
            t.data = np.zeros_like(t.data)
        levels.append(p)
    return PyramidModel(encoder=enc, levels=levels)


def rand_img(seed, size=96):
    return np.random.default_rng(seed).random((size, size, 3)).astype(np.float32)


class TestLevelPairs:
    """`_level_pairs`, the one check and split of a walk's (content, style) pair."""

    def test_halving_schedule(self):
        rng = np.random.default_rng(5)
        c = rng.random((96, 96, 3)).astype(np.float32)
        s = rng.random((96, 96, 3)).astype(np.float32)
        pairs = _level_pairs("stylize", c, s, 3)
        assert [p[0].shape[0] for p in pairs] == [24, 48, 96]

    def test_single_level_is_original(self):
        img = np.zeros((8, 8, 3), dtype=np.float32)
        pairs = _level_pairs("stylize", img, img, 1)
        assert len(pairs) == 1
        assert pairs[0][0] is img

    def test_coarsest_equals_double_downsample(self):
        rng = np.random.default_rng(6)
        c = rng.random((32, 32, 3)).astype(np.float32)
        pairs = _level_pairs("stylize", c, c, 3)
        np.testing.assert_array_equal(pairs[0][0], images.downsample(images.downsample(c)))

    def test_indivisible_raises(self):
        img = np.zeros((10, 10, 3), dtype=np.float32)
        with pytest.raises(ContractError, match=r"^stylize: dimensions 10x10 must be "
                                                r"divisible by 32$"):
            _level_pairs("stylize", img, img, 3)

    def test_pairs_are_reversed_pyramids(self):
        c, s = np.random.default_rng(8).random((2, 32, 64, 3)).astype(np.float32)
        want = list(zip(images.pyramid(c, 3), images.pyramid(s, 3)))[::-1]
        for got, ref in zip(_level_pairs("stylize", c, s, 3), want, strict=True):
            np.testing.assert_array_equal(got, ref)

    def test_rule_is_the_encoders(self):
        """A walk from `level` needs sides that divide by `side_multiple(level)`:
        8 for the encoder's poolings at the coarsest, times 2 per level below the top."""
        assert [enc_mod.side_multiple(k) for k in (1, 2, 3)] == [8, 16, 32]
        for level in (1, 2, 3):
            need = enc_mod.side_multiple(level)
            img = np.zeros((need, 3 * need, 3), dtype=np.float32)
            assert _level_pairs("stylize", img, img, level)[0][0].shape == (8, 24, 3)
            with pytest.raises(ContractError, match=f"divisible by {need}$"):
                _level_pairs("stylize", img[:need // 2], img[:need // 2], level)

    @pytest.mark.parametrize("bad", [None, np.zeros((8, 8), np.float32),
                                     np.zeros((8, 8, 4), np.float32)])
    def test_non_image_raises_naming_caller(self, bad):
        img = np.zeros((8, 8, 3), dtype=np.float32)
        for content, style in ((bad, img), (img, bad)):
            with pytest.raises(ContractError, match=r"^refine_external: expected an \(H, W, 3\)"):
                _level_pairs("refine_external", content, style, 1)


class TestRefineLevel:
    def test_zero_params_identity(self, zero_model):
        icing = rand_img(0, 24)
        out = refine_level(icing, rand_img(1, 24), rand_img(2, 24),
                           zero_model.levels[2], zero_model.encoder)
        np.testing.assert_array_equal(out, icing)

    def test_clamp_saturates(self, model):
        """Where estimate + residual leaves [0, 1] the output is exactly 0 or 1."""
        loud = ad.cast_params(model.levels[0], np.float32)
        loud.head.weight.data *= 100
        icing, content, style = rand_img(0, 16), rand_img(1, 16), rand_img(2, 16)
        out = refine_level(icing, content, style, loud, model.encoder)
        raw = icing + from_chw(etnet_forward(content, style, icing, loud, model.encoder).data)
        low, high = raw < 0, raw > 1
        assert low.any() and high.any() and (~low & ~high).any()
        assert (out[low] == 0).all() and (out[high] == 1).all()
        np.testing.assert_array_equal(out[~low & ~high], raw[~low & ~high])

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_encoded_targets_match_images(self, model, alpha):
        """The content's FeatureStack and the style's Gram stack, as training's
        target cache passes them, give the output of the images, bit for bit."""
        icing, content, style = rand_img(0, 24), rand_img(1, 24), rand_img(2, 24)
        enc = model.encoder
        encoded = refine_level(icing, enc_mod.encode(content, enc),
                               enc_mod.gram_stack(enc_mod.encode(style, enc)),
                               model.levels[1], enc, alpha)
        direct = refine_level(icing, content, style, model.levels[1], enc, alpha)
        assert encoded.tobytes() == direct.tobytes()

    def test_resolution_mismatch_raises(self, model):
        with pytest.raises(ContractError):
            refine_level(rand_img(0, 16), rand_img(1, 24), rand_img(2, 24),
                         model.levels[0], model.encoder)


class TestStylize:
    def test_intermediate_schedule(self, model):
        res = stylize(rand_img(3), rand_img(4), model)
        assert [img.shape[0] for img in res.intermediates] == [24, 48, 96]
        assert res.final is res.intermediates[-1]

    def test_output_in_range(self, model):
        res = stylize(rand_img(5), rand_img(6), model)
        for img in res.intermediates:
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_zero_weights_give_black(self, zero_model):
        res = stylize(rand_img(7), rand_img(8), zero_model)
        np.testing.assert_array_equal(res.final, np.zeros((96, 96, 3), dtype=np.float32))

    def test_indivisible_size_raises(self, model):
        img = rand_img(9, 48)[:40, :40]
        with pytest.raises(ContractError):
            stylize(img, img, model)

    def test_content_and_style_sizes_differ(self, model):
        """A pair of two sizes fails in stylize itself, naming it."""
        with pytest.raises(ContractError, match=r"^stylize: content \(96, 96, 3\) vs style "
                                                r"\(64, 64, 3\)$"):
            stylize(rand_img(9), rand_img(10, 64), model)

    def test_model_without_levels_raises(self, model):
        with pytest.raises(ContractError, match=r"^stylize: levels must be >= 1, got 0$"):
            stylize(rand_img(9), rand_img(10), PyramidModel(encoder=model.encoder, levels=[]))

    def test_deterministic(self, model):
        a = stylize(rand_img(10), rand_img(11), model)
        b = stylize(rand_img(10), rand_img(11), model)
        assert a.final.tobytes() == b.final.tobytes()

    def test_loaded_model_reuses_layouts_bit_identically(self, model, tmp_path):
        """Two stylize calls on one loaded model, the second on the weight
        layouts the first built, match each other and a freshly loaded copy
        byte for byte."""
        cfg = RunConfig(seed=1, image_size=32, channels=CHANNELS, levels=3,
                        model_dir=str(tmp_path / "m")).validate()
        trainer.init_model_dir(cfg.model_dir, cfg, model.encoder)
        for level, params in enumerate(model.levels, start=1):
            trainer.save_level_checkpoint(
                os.path.join(cfg.model_dir, trainer.level_file(level)), params)
        loaded, _ = trainer.load_model_dir(cfg.model_dir)
        content, style = rand_img(12, 32), rand_img(13, 32)
        first, second = (stylize(content, style, loaded).final for _ in range(2))
        fresh = stylize(content, style, trainer.load_model_dir(cfg.model_dir)[0]).final
        assert first.tobytes() == second.tobytes() == fresh.tobytes()


class TestStylizeAlpha:
    def test_alpha_one_bit_identical(self, model):
        c, s = rand_img(12), rand_img(13)
        plain = stylize(c, s, model)
        mixed = stylize_alpha(c, s, model, alpha=1.0)
        assert plain.final.tobytes() == mixed.final.tobytes()
        for a, b in zip(plain.intermediates, mixed.intermediates):
            assert a.tobytes() == b.tobytes()

    def test_alpha_zero_uses_content_statistics(self, model):
        c = rand_img(14)
        toward_self = stylize_alpha(c, rand_img(15), model, alpha=0.0)
        pure_self = stylize_alpha(c, c, model, alpha=1.0)
        np.testing.assert_allclose(toward_self.final, pure_self.final, atol=1e-5)

    def test_alpha_half_is_bundle_mean(self, model):
        c, s, cur = rand_img(16, 24), rand_img(17, 24), rand_img(18, 24)
        enc = model.encoder
        toward_style = compute_errors(c, s, cur, enc)
        toward_content = compute_errors(c, c, cur, enc)
        mixed = mix_bundles(toward_style, toward_content, 0.5)
        np.testing.assert_allclose(
            mixed.content.data,
            (toward_style.content.data + toward_content.content.data) / 2, atol=1e-6)
        for m, a, b in zip(mixed.style, toward_style.style, toward_content.style):
            np.testing.assert_allclose(m.data, (a.data + b.data) / 2, atol=1e-6)

    def test_alpha_encodes_each_image_once_per_level(self, model, monkeypatch):
        # estimate, content and style: 3 encoder passes per level, alpha or not
        calls = []
        original = enc_mod.encode

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("restyle") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        counts = []
        for alpha in (None, 0.5):
            calls.clear()
            stylize(rand_img(35, 32), rand_img(36, 32), model, alpha=alpha)
            counts.append(len(calls))
        assert counts == [9, 9]

    def test_alpha_out_of_range_raises(self, model):
        with pytest.raises(ContractError):
            stylize_alpha(rand_img(19), rand_img(20), model, alpha=1.5)

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_stylize_checks_alpha(self, model, alpha):
        with pytest.raises(ContractError, match="alpha"):
            stylize(rand_img(19), rand_img(20), model, alpha=alpha)


class TestRefineExternal:
    def test_full_resolution_shape(self, model):
        ext = rand_img(21, 96)
        res = refine_external(ext, rand_img(22), rand_img(23), model, level=1)
        assert res.final.shape == (96, 96, 3)
        assert len(res.intermediates) == 1

    def test_mid_level_continues_pyramid(self, model):
        ext = rand_img(24, 48)
        res = refine_external(ext, rand_img(25), rand_img(26), model, level=2)
        assert [img.shape[0] for img in res.intermediates] == [48, 96]

    def test_wrong_resolution_raises(self, model):
        with pytest.raises(ContractError):
            refine_external(rand_img(27, 48), rand_img(28), rand_img(29), model, level=1)

    @pytest.mark.parametrize("level, size", [(1, 12), (2, 24)])
    def test_size_checked_up_front(self, model, level, size):
        """A pair too small for the encoder at `level` fails in refine_external
        itself, by the rule stylize applies at the coarsest level."""
        two_levels = PyramidModel(encoder=model.encoder, levels=model.levels[:2])
        img = rand_img(33, size)
        with pytest.raises(ContractError, match=rf"^refine_external: dimensions {size}x{size} "
                                                rf"must be divisible by {8 * 2 ** (level - 1)}$"):
            refine_external(img[::2 ** (level - 1), ::2 ** (level - 1)], img, img, two_levels,
                            level)

    def test_bad_level_raises(self, model):
        with pytest.raises(ContractError):
            refine_external(rand_img(30, 96), rand_img(31), rand_img(32), model, level=4)
