"""Encoder, error-definition, and fusion tests."""

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import gradcheck
from restyle.autodiff import Tensor
from restyle.encoder import NUM_STAGES, compute_errors, encode, fuse, make_encoder, \
    pair_errors
from restyle.errors import ContractError


@pytest.fixture(scope="module")
def enc():
    return make_encoder(seed=13)


def rand_img(seed, size=24):
    return np.random.default_rng(seed).random((size, size, 3)).astype(np.float32)


class TestEncode:
    def test_stage_shapes(self, enc):
        stack = encode(rand_img(0, 24), enc)
        assert [f.shape for f in stack.stages] == [
            (16, 24, 24), (32, 12, 12), (64, 6, 6), (128, 3, 3)]

    def test_deterministic_and_pure(self, enc):
        img = rand_img(1, 24)
        a = encode(img, enc)
        b = encode(img, enc)
        for fa, fb in zip(a.stages, b.stages):
            assert fa.data.tobytes() == fb.data.tobytes()

    def test_indivisible_raises(self, enc):
        with pytest.raises(ContractError):
            encode(np.zeros((20, 24, 3), dtype=np.float32), enc)

    def test_weights_fixed(self, enc):
        for name, t in enc.named_tensors().items():
            assert not t.requires_grad, name

    def test_encoder_rebuild_identical(self):
        a = make_encoder(seed=5).named_tensors()
        b = make_encoder(seed=5).named_tensors()
        assert set(a) == set(b)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()


class TestComputeErrors:
    def test_zero_content_error_on_match(self, enc):
        c, s = rand_img(2, 24), rand_img(3, 24)
        bundle = compute_errors(c, s, c, enc)
        assert np.max(np.abs(bundle.content.data)) == 0.0

    def test_zero_style_error_on_match(self, enc):
        c, s = rand_img(4, 24), rand_img(5, 24)
        bundle = compute_errors(c, s, s, enc)
        for delta in bundle.style:
            assert np.max(np.abs(delta.data)) == 0.0

    def test_antisymmetry_under_swap(self, enc):
        c, s, cur = rand_img(6, 24), rand_img(7, 24), rand_img(8, 24)
        fwd = compute_errors(c, s, cur, enc)
        # swap targets and current for both roles
        rev_content = compute_errors(cur, s, c, enc)
        rev_style = compute_errors(c, cur, s, enc)
        np.testing.assert_array_equal(fwd.content.data, -rev_content.content.data)
        for a, b in zip(fwd.style, rev_style.style):
            np.testing.assert_array_equal(a.data, -b.data)

    def test_matches_compositional_oracle(self, enc):
        c, s, cur = rand_img(9, 24), rand_img(10, 24), rand_img(11, 24)
        bundle = compute_errors(c, s, cur, enc)
        feat_c = encode(c, enc).stages[-1].data
        feat_cur_stack = encode(cur, enc)
        np.testing.assert_allclose(
            bundle.content.data, feat_c - feat_cur_stack.stages[-1].data, atol=1e-6)
        for i, delta in enumerate(bundle.style):
            gs = ad.gram(encode(s, enc).stages[i]).data
            gc = ad.gram(feat_cur_stack.stages[i]).data
            np.testing.assert_allclose(delta.data, gs - gc, atol=1e-6)

    def test_style_deltas_symmetric(self, enc):
        bundle = compute_errors(rand_img(12, 24), rand_img(13, 24), rand_img(14, 24), enc)
        for delta in bundle.style:
            np.testing.assert_allclose(delta.data, delta.data.T, atol=1e-6)

    def test_dimension_mismatch_raises(self, enc):
        with pytest.raises(ContractError):
            compute_errors(rand_img(0, 24), rand_img(1, 32), rand_img(2, 24), enc)

    def test_alpha_takes_each_gram_stack_once(self, enc, monkeypatch):
        """With alpha, the content, the style and the current image each have
        their Gram stack taken once: the current one serves both bundles."""
        calls = []
        real = ad.gram

        def counting(f):
            calls.append(f.shape)
            return real(f)

        monkeypatch.setattr(ad, "gram", counting)
        pair_errors(rand_img(15, 24), rand_img(16, 24), rand_img(17, 24), enc, alpha=0.5)
        assert len(calls) == 3 * NUM_STAGES


class TestFuse:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(20)
        content = Tensor(rng.standard_normal((5, 3, 4)).astype(np.float32))
        eye = Tensor(np.eye(5, dtype=np.float32))
        out = fuse(content, eye, eye)
        np.testing.assert_allclose(out.data, content.data, atol=1e-6)

    def test_zero_content_gives_zero(self):
        rng = np.random.default_rng(21)
        out = fuse(Tensor(np.zeros((4, 2, 2), dtype=np.float32)),
                   Tensor(rng.standard_normal((4, 4)).astype(np.float32)),
                   Tensor(rng.standard_normal((4, 4)).astype(np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2, 2)))

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(22)
        content = rng.standard_normal((3, 2, 2)).astype(np.float32)
        w = rng.standard_normal((3, 3)).astype(np.float32)
        se = rng.standard_normal((3, 3)).astype(np.float32)
        out = fuse(Tensor(content), Tensor(w), Tensor(se)).data
        for y in range(2):
            for x in range(2):
                vec = content[:, y, x].astype(np.float64)
                want = vec @ w.astype(np.float64) @ se.astype(np.float64)
                np.testing.assert_allclose(out[:, y, x], want, atol=1e-6)

    def test_linear_in_content(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 3, 3)).astype(np.float32)
        b = rng.standard_normal((4, 3, 3)).astype(np.float32)
        w = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        se = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        lhs = fuse(Tensor(a + b), w, se).data
        rhs = fuse(Tensor(a), w, se).data + fuse(Tensor(b), w, se).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ContractError):
            fuse(Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros((4, 4))),
                 Tensor(np.zeros((4, 4))))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        build = gradcheck.case(fuse, ((3, 2, 3), 1.0), ((3, 3), 1.0), ((3, 3), 1.0))
        assert gradcheck.check_gradients(build, seed) < 1e-4
