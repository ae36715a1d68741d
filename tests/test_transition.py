"""Decoder tests: attention oracle, propagation cascade, residual contract."""

import tracemalloc

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import gradcheck, transition
from restyle.autodiff import ConvParams, Tensor, load_state
from restyle.encoder import ErrorBundle, encode, make_encoder, pair_errors
from restyle.errors import ContractError
from restyle.transition import (LevelParams, NonLocalParams, PropagationBlockParams,
                                block_residual, etnet_forward, fused_error,
                                make_level_params, nonlocal_block, propagation_block,
                                run_decoder, zero_error_residual)

from test_encoder import rand_img


def conv1x1_loops(x, w):
    """(C_in, H, W) through a (C_out, C_in, 1, 1) kernel, by explicit loops."""
    c_out = w.shape[0]
    _, h, wid = x.shape
    out = np.zeros((c_out, h, wid))
    for co in range(c_out):
        for ci in range(x.shape[0]):
            out[co] += w[co, ci, 0, 0] * x[ci]
    return out


def nonlocal_loops(err, f_in, wh, wu, wg):
    """Quadratic-cost attention oracle in float64."""
    c, h, w = err.shape
    n = h * w
    q = conv1x1_loops(err, wu).reshape(c, n)
    k = conv1x1_loops(f_in, wg).reshape(c, n)
    v = conv1x1_loops(err, wh).reshape(c, n)
    out = np.zeros((c, n))
    logits = np.zeros((n, n))
    for e in range(n):
        for p in range(n):
            logits[e, p] = float(q[:, e] @ k[:, p]) / np.sqrt(c)
    for e in range(n):
        row = np.exp(logits[e] - logits[e].max())
        logits[e] = row / row.sum()
    for p in range(n):
        for e in range(n):
            out[:, p] += logits[e, p] * v[:, e]
    return out.reshape(c, h, w)


def make_nonlocal(rng, c):
    def p1x1():
        return ConvParams(weight=Tensor(rng.standard_normal((c, c, 1, 1)).astype(np.float32)))
    return NonLocalParams(psi_h=p1x1(), psi_u=p1x1(), psi_g=p1x1())


class TestNonLocalBlock:
    def test_zero_error_gives_zero(self):
        rng = np.random.default_rng(0)
        p = make_nonlocal(rng, 4)
        err = Tensor(np.zeros((4, 3, 3), dtype=np.float32))
        f_in = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
        out = nonlocal_block(err, f_in, p)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3, 3)))

    def test_single_pixel_reduces_to_value_map(self):
        rng = np.random.default_rng(1)
        p = make_nonlocal(rng, 5)
        err = Tensor(rng.standard_normal((5, 1, 1)).astype(np.float32))
        f_in = Tensor(rng.standard_normal((5, 1, 1)).astype(np.float32))
        out = nonlocal_block(err, f_in, p)
        np.testing.assert_allclose(out.data, ad.conv2d(err, p.psi_h).data, rtol=1e-6)

    @pytest.mark.parametrize("h,w", [(2, 2), (3, 3), (1, 6), (4, 2), (2, 5)])
    def test_matches_quadratic_oracle(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        p = make_nonlocal(rng, 4)
        err = rng.standard_normal((4, h, w)).astype(np.float32)
        f_in = rng.standard_normal((4, h, w)).astype(np.float32)
        got = nonlocal_block(Tensor(err), Tensor(f_in), p).data
        want = nonlocal_loops(err.astype(np.float64), f_in.astype(np.float64),
                              p.psi_h.weight.data.astype(np.float64),
                              p.psi_u.weight.data.astype(np.float64),
                              p.psi_g.weight.data.astype(np.float64))
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_affinity_rows_sum_to_one(self):
        # recompute the affinity the same way the block does and check rows
        rng = np.random.default_rng(9)
        p = make_nonlocal(rng, 4)
        err = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
        f_in = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
        q = ad.scale(ad.flatten_pixels(ad.conv2d(err, p.psi_u)), 1.0 / 2.0)
        k = ad.reshape(ad.conv2d(f_in, p.psi_g), (4, 9))
        aff = ad.softmax_rows(ad.matmul(q, k)).data
        np.testing.assert_allclose(aff.sum(axis=1), np.ones(9), atol=1e-6)

    def test_peaked_affinity_matches_oracle(self):
        # query and key weights this large spread each logit row over
        # hundreds, so float32 affinities fall below the smallest normal
        # float and are flushed to 0
        rng = np.random.default_rng(12)
        p = make_nonlocal(rng, 4)
        p.psi_u.weight.data *= 6
        p.psi_g.weight.data *= 6
        err = rng.standard_normal((4, 6, 6)).astype(np.float32)
        f_in = rng.standard_normal((4, 6, 6)).astype(np.float32)
        q = ad.flatten_pixels(ad.conv2d(Tensor(err), p.psi_u)).data
        k = ad.conv2d(Tensor(f_in), p.psi_g).data.reshape(4, 36)
        shifted = q @ k / 2.0
        shifted -= shifted.max(axis=1, keepdims=True)
        unflushed = np.exp(shifted)
        assert np.any((unflushed > 0) & (unflushed < np.finfo(np.float32).tiny))
        got = nonlocal_block(Tensor(err), Tensor(f_in), p).data
        want = nonlocal_loops(err.astype(np.float64), f_in.astype(np.float64),
                              p.psi_h.weight.data.astype(np.float64),
                              p.psi_u.weight.data.astype(np.float64),
                              p.psi_g.weight.data.astype(np.float64))
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_cyclic_shift_covariance(self):
        # no padding anywhere in the block, so a cyclic pixel shift of both
        # inputs must cyclically shift the output exactly
        rng = np.random.default_rng(10)
        p = make_nonlocal(rng, 4)
        err = rng.standard_normal((4, 4, 4)).astype(np.float32)
        f_in = rng.standard_normal((4, 4, 4)).astype(np.float32)
        base = nonlocal_block(Tensor(err), Tensor(f_in), p).data
        shifted = nonlocal_block(Tensor(np.roll(err, (1, 2), axis=(1, 2))),
                                 Tensor(np.roll(f_in, (1, 2), axis=(1, 2))), p).data
        np.testing.assert_allclose(shifted, np.roll(base, (1, 2), axis=(1, 2)), atol=1e-5)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(11)
        p = make_nonlocal(rng, 4)
        with pytest.raises(ContractError):
            nonlocal_block(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros((4, 2, 3))), p)

    def test_oversized_map_raises_before_attention(self):
        """A 132x132 deepest map, that of a 1056 px image, needs a 1.13 GiB
        float32 affinity: ContractError, before anything of that size exists."""
        p = make_nonlocal(np.random.default_rng(12), 1)
        err = Tensor(np.ones((1, 132, 132), dtype=np.float32))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="132x132"):
                nonlocal_block(err, err, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_affinity_limit_admits_its_own_size(self, monkeypatch):
        """The limit is inclusive and counts the dtype's bytes: with room for a
        16x16 float32 affinity, a 4x4 float32 map runs; a 4x5 one and a 4x4
        float64 one raise."""
        monkeypatch.setattr(transition, "AFFINITY_BYTES", 16 * 16 * 4)
        rng = np.random.default_rng(13)
        p = make_nonlocal(rng, 2)
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        assert nonlocal_block(Tensor(x), Tensor(x), p).shape == (2, 4, 4)
        with pytest.raises(ContractError):
            nonlocal_block(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((2, 4, 5))), p)
        with pytest.raises(ContractError):
            nonlocal_block(Tensor(x, dtype=np.float64), Tensor(x, dtype=np.float64), p)

    def test_limit_admits_1024_px_float32(self):
        assert (128 * 128) ** 2 * 4 <= transition.AFFINITY_BYTES < (132 * 132) ** 2 * 4

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        # the standard suite's case: three 1x1 weights, then error and features
        build = next(c.build for c in gradcheck.standard_suite() if c.name == "nonlocal_block")
        assert gradcheck.check_gradients(build, seed) < 1e-4


def make_block(rng, c_i, c_prev, dtype=np.float32):
    def conv(c_in, c_out, k, pad=0):
        w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype) / np.sqrt(c_in * k * k)
        return ConvParams(weight=Tensor(w, dtype=dtype), padding=pad)
    return PropagationBlockParams(
        phi_t=conv(c_i, c_prev, 1),
        psi=Tensor(rng.standard_normal((c_prev, c_prev)).astype(dtype), dtype=dtype),
        phi_u=conv(c_prev, c_prev, 3, pad=1),
        phi_v=conv(c_i, c_prev, 1),
        phi_w=conv(3 * c_prev, c_prev, 3, pad=1),
    )


def conv_loops(x, w, pad):
    from test_autodiff import conv2d_loops
    return conv2d_loops(x, w, None, 1, pad)


def propagation_loops(err, d, f_in, style_delta, p):
    """Step-by-step oracle composing the primitive operations independently."""
    up = lambda a: np.repeat(np.repeat(a, 2, axis=1), 2, axis=2)
    err_up, d_up = up(err), up(d)
    t = conv_loops(err_up, p.phi_t.weight.data.astype(np.float64), 0)
    c, h, w = t.shape
    fused = np.zeros_like(t)
    for y in range(h):
        for x in range(w):
            fused[:, y, x] = t[:, y, x] @ p.psi.data.astype(np.float64) \
                @ style_delta.astype(np.float64)
    err_out = np.maximum(conv_loops(fused, p.phi_u.weight.data.astype(np.float64), 1), 0.0)
    v = conv_loops(d_up, p.phi_v.weight.data.astype(np.float64), 0)
    merged = np.concatenate([v, f_in, fused], axis=0)
    d_out = np.maximum(conv_loops(merged, p.phi_w.weight.data.astype(np.float64), 1), 0.0)
    return err_out, d_out


def conv_shift_sum(x, w, pad):
    """Zero-padded stride-1 convolution in float64 as a sum of shifted 1x1 maps."""
    _, _, k, _ = w.shape
    _, h, wid = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    return sum(np.einsum("oi,ihw->ohw", w[:, :, ky, kx], xp[:, ky:ky + h, kx:kx + wid])
               for ky in range(k) for kx in range(k))


def upsample_first_oracle(err, d, f_in, style_delta, p):
    """(fused, residual) by the upsample-first formula, in float64: phi_t, the
    fusion and phi_v applied to the upsampled maps."""
    up = lambda a: np.repeat(np.repeat(a, 2, axis=1), 2, axis=2)
    w = lambda conv: conv.weight.data.astype(np.float64)
    t = conv_shift_sum(up(err), w(p.phi_t), 0)
    mix = p.psi.data.astype(np.float64) @ style_delta.astype(np.float64)
    fused = np.einsum("chw,cd->dhw", t, mix)
    v = conv_shift_sum(up(d), w(p.phi_v), 0)
    merged = np.concatenate([v, f_in, fused], axis=0)
    return fused, np.maximum(conv_shift_sum(merged, w(p.phi_w), 1), 0.0)


class TestPropagationBlock:
    @pytest.mark.parametrize("size", [3, 12, 48])
    def test_maps_before_upsample_match_upsample_first(self, size):
        """fused_error and block_residual run phi_t, the fusion and phi_v before
        the upsample; they equal the upsample-first formula."""
        rng = np.random.default_rng(50 + size)
        p = make_block(rng, 6, 4)
        err = rng.standard_normal((6, size, size)).astype(np.float32)
        d = rng.standard_normal((6, size, size)).astype(np.float32)
        f_in = rng.standard_normal((4, 2 * size, 2 * size)).astype(np.float32)
        sd = rng.standard_normal((4, 4)).astype(np.float32)
        fused = fused_error(Tensor(err), Tensor(sd), p)
        d_got = block_residual(fused, Tensor(d), Tensor(f_in), p)
        fused_want, d_want = upsample_first_oracle(
            err.astype(np.float64), d.astype(np.float64), f_in.astype(np.float64), sd, p)
        np.testing.assert_allclose(fused.data, fused_want, atol=1e-5)
        np.testing.assert_allclose(d_got.data, d_want, atol=1e-5)

    def test_zero_error_zeroes_error_branch(self):
        rng = np.random.default_rng(20)
        p = make_block(rng, 6, 4)
        err = Tensor(np.zeros((6, 3, 3), dtype=np.float32))
        d = Tensor(np.zeros((6, 3, 3), dtype=np.float32))
        f_in = Tensor(rng.standard_normal((4, 6, 6)).astype(np.float32))
        sd = Tensor(np.zeros((4, 4), dtype=np.float32))
        err_out, d_out = propagation_block(err, d, f_in, sd, p)
        np.testing.assert_array_equal(err_out.data, np.zeros((4, 6, 6)))
        # residual branch reduces to the feature branch alone
        merged = Tensor(np.concatenate([
            ad.conv2d(Tensor(np.zeros((6, 6, 6), dtype=np.float32)), p.phi_v).data,
            f_in.data, np.zeros((4, 6, 6), dtype=np.float32)]))
        want = np.maximum(ad.conv2d(merged, p.phi_w).data, 0)
        np.testing.assert_array_equal(d_out.data, want)

    def test_spatial_contract_doubles(self):
        rng = np.random.default_rng(21)
        p = make_block(rng, 6, 4)
        err = Tensor(rng.standard_normal((6, 3, 3)).astype(np.float32))
        d = Tensor(rng.standard_normal((6, 3, 3)).astype(np.float32))
        f_in = Tensor(rng.standard_normal((4, 6, 6)).astype(np.float32))
        sd = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        err_out, d_out = propagation_block(err, d, f_in, sd, p)
        assert err_out.shape == (4, 6, 6)
        assert d_out.shape == (4, 6, 6)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_compositional_oracle(self, seed):
        rng = np.random.default_rng(30 + seed)
        p = make_block(rng, 5, 3)
        err = rng.standard_normal((5, 2, 2)).astype(np.float32)
        d = rng.standard_normal((5, 2, 2)).astype(np.float32)
        f_in = rng.standard_normal((3, 4, 4)).astype(np.float32)
        sd = rng.standard_normal((3, 3)).astype(np.float32)
        sd = (sd + sd.T) / 2
        err_got, d_got = propagation_block(Tensor(err), Tensor(d), Tensor(f_in), Tensor(sd), p)
        err_want, d_want = propagation_loops(
            err.astype(np.float64), d.astype(np.float64), f_in.astype(np.float64), sd, p)
        np.testing.assert_allclose(err_got.data, err_want, atol=1e-5)
        np.testing.assert_allclose(d_got.data, d_want, atol=1e-5)

    def test_interior_shift_covariance(self):
        # 3x3 convolutions use zero padding, so covariance holds away from a
        # 2-pixel border; upsampling doubles the shift
        rng = np.random.default_rng(40)
        p = make_block(rng, 6, 4)
        err = rng.standard_normal((6, 6, 6)).astype(np.float32)
        d = rng.standard_normal((6, 6, 6)).astype(np.float32)
        f_in = rng.standard_normal((4, 12, 12)).astype(np.float32)
        sd = rng.standard_normal((4, 4)).astype(np.float32)
        base = propagation_block(Tensor(err), Tensor(d), Tensor(f_in), Tensor(sd), p)
        shift = propagation_block(Tensor(np.roll(err, (1, 1), axis=(1, 2))),
                                  Tensor(np.roll(d, (1, 1), axis=(1, 2))),
                                  Tensor(np.roll(f_in, (2, 2), axis=(1, 2))),
                                  Tensor(sd), p)
        for got, ref in zip(shift, base):
            rolled = np.roll(ref.data, (2, 2), axis=(1, 2))
            np.testing.assert_allclose(got.data[:, 3:-3, 3:-3], rolled[:, 3:-3, 3:-3],
                                       atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        def build(rng):
            p = make_block(rng, 4, 3, dtype=np.float64)
            leaves = [p.phi_t.weight, p.psi, p.phi_u.weight, p.phi_v.weight, p.phi_w.weight]
            err = Tensor(rng.standard_normal((4, 2, 2)), requires_grad=True, dtype=np.float64)
            d = Tensor(rng.standard_normal((4, 2, 2)), requires_grad=True, dtype=np.float64)
            f_in = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True, dtype=np.float64)
            sd = Tensor(rng.standard_normal((3, 3)), requires_grad=True, dtype=np.float64)
            for t in leaves:
                t.requires_grad = True
            proj_e = gradcheck.projection(rng, (3, 4, 4))
            proj_d = gradcheck.projection(rng, (3, 4, 4))

            def forward():
                e, dd = propagation_block(err, d, f_in, sd, p)
                return ad.add(gradcheck.scalarize(e, proj_e), gradcheck.scalarize(dd, proj_d))

            return leaves + [err, d, f_in, sd], forward
        assert gradcheck.check_gradients(build, seed) < 1e-4


CHANNELS = (4, 6, 8, 10)


@pytest.fixture(scope="module")
def small_setup():
    enc = make_encoder(seed=3, channels=CHANNELS)
    params = make_level_params(seed=4, channels=CHANNELS)
    return enc, params


class TestEtnetForward:
    def test_output_shape_matches_input(self, small_setup):
        enc, params = small_setup
        for size in (16, 24, 32):
            out = etnet_forward(rand_img(1, size), rand_img(2, size), rand_img(3, size),
                                params, enc)
            assert out.shape == (3, size, size)

    def test_zero_bundle_zeroes_error_path(self, small_setup):
        enc, params = small_setup
        img = rand_img(4, 16)
        f_in = encode(img, enc)
        bundle = ErrorBundle(
            content=Tensor(np.zeros_like(f_in.stages[-1].data)),
            style=tuple(Tensor(np.zeros((c, c), dtype=np.float32)) for c in CHANNELS))
        residual, internals = run_decoder(bundle, f_in, params)
        for err in internals["err"]:
            assert np.max(np.abs(err.data)) == 0.0
        assert np.max(np.abs(internals["d"][0].data)) == 0.0

    def test_identity_inputs_zero_error_path(self, small_setup):
        # content == style == current makes every error feature exactly zero
        enc, params = small_setup
        img = rand_img(5, 16)
        f_in = encode(img, enc)
        from restyle.encoder import errors_between, gram_stack
        bundle = errors_between(encode(img, enc).stages[-1], gram_stack(encode(img, enc)),
                                (f_in, gram_stack(f_in)))
        assert np.max(np.abs(bundle.content.data)) == 0.0
        residual, internals = run_decoder(bundle, f_in, params)
        for err in internals["err"]:
            assert np.max(np.abs(err.data)) == 0.0

    def test_finest_error_map_is_unused(self, small_setup):
        """The finest block's phi_u feeds nothing: a NaN weight there leaves the
        residual finite and unchanged, and internals hold no finest error map."""
        enc, params = small_setup
        bundle, f_in = pair_errors(rand_img(10, 16), rand_img(11, 16), rand_img(9, 16), enc)
        residual, internals = run_decoder(bundle, f_in, params)
        poisoned = ad.cast_params(params, np.float32)
        poisoned.blocks[-1].phi_u.weight.data[:] = np.nan
        got, _ = run_decoder(bundle, f_in, poisoned)
        assert np.all(np.isfinite(got.data))
        np.testing.assert_array_equal(got.data, residual.data)
        assert [e.shape[1] for e in internals["err"]] == [2, 4, 8]
        assert [d.shape[1] for d in internals["d"]] == [2, 4, 8, 16]

    def test_all_zero_images_give_zero_residual(self, small_setup):
        # bias-free everywhere: zero images produce exactly zero residual
        enc, params = small_setup
        zero = np.zeros((16, 16, 3), dtype=np.float32)
        out = etnet_forward(zero, zero, zero, params, enc)
        np.testing.assert_array_equal(out.data, np.zeros((3, 16, 16)))

    def test_residual_is_unclamped(self, small_setup):
        """A head scaled 100x gives a residual that leaves [0, 1] on both sides."""
        enc, params = small_setup
        loud = ad.cast_params(params, np.float32)
        loud.head.weight.data *= 100
        out = etnet_forward(rand_img(6, 16), rand_img(7, 16), rand_img(8, 16), loud, enc)
        assert out.data.min() < 0 and out.data.max() > 1

    def test_named_tensors_roundtrip(self):
        params = make_level_params(seed=9, channels=CHANNELS)
        state = {k: v.data.copy() for k, v in params.named_tensors().items()}
        other = make_level_params(seed=10, channels=CHANNELS)
        load_state(other, state)
        for k, v in other.named_tensors().items():
            np.testing.assert_array_equal(v.data, state[k])

    def test_load_state_rejects_bad_names(self):
        params = make_level_params(seed=11, channels=CHANNELS)
        with pytest.raises(ContractError):
            load_state(params, {"bogus": np.zeros(3)})

    def test_encoder_load_state_validates(self):
        enc = make_encoder(seed=2, channels=CHANNELS)
        state = {k: v.data.copy() for k, v in enc.named_tensors().items()}
        first = next(iter(state))
        missing = {k: v for k, v in state.items() if k != first}
        with pytest.raises(ContractError, match="missing"):
            load_state(enc, missing)
        with pytest.raises(ContractError, match="extra"):
            load_state(enc, {**state, "encoder.stage5.conv1.weight": state[first]})
        with pytest.raises(ContractError, match="shape"):
            load_state(enc, {**state, first: np.zeros((1, 1, 1, 1), dtype=np.float32)})
        load_state(make_encoder(seed=3, channels=CHANNELS), state)

    @pytest.mark.parametrize("make", [lambda: make_encoder(seed=2, channels=CHANNELS),
                                      lambda: make_level_params(seed=9, channels=CHANNELS)],
                             ids=["encoder", "level"])
    def test_astype_float64_copy(self, make):
        params = make()
        for t in params.named_tensors().values():
            t.grad = np.ones_like(t.data)
        shadow = params.astype(np.float64)
        assert type(shadow) is type(params)
        named, copies = params.named_tensors(), shadow.named_tensors()
        assert list(copies) == list(named)
        for name, t in named.items():
            c = copies[name]
            assert c.dtype == np.float64 and c.grad is None
            assert c.requires_grad == t.requires_grad
            np.testing.assert_array_equal(c.data, t.data.astype(np.float64))
            assert not np.shares_memory(c.data, t.data)

    def test_gradients_all_parameters(self, small_setup):
        enc, _ = small_setup
        enc64 = enc.astype(np.float64)

        def build(rng):
            params = make_level_params(seed=12, channels=CHANNELS).astype(np.float64)
            leaves = params.tensors()
            for t in leaves:
                t.requires_grad = True
            c = Tensor(rng.random((3, 16, 16)), dtype=np.float64)
            s = Tensor(rng.random((3, 16, 16)), dtype=np.float64)
            cur = Tensor(rng.random((3, 16, 16)), dtype=np.float64)

            def forward():
                out = etnet_forward(c, s, cur, params, enc64)
                return ad.mean_all(ad.mul(out, out))

            return leaves, forward

        err = gradcheck.check_gradients(build, seed=0, max_coords=4)
        assert err < 1e-4


class TestZeroErrorResidual:
    """The feature branch alone gives run_decoder's zero-bundle residual and
    parameter gradients, bit for bit."""

    WIDTHS = (16, 32, 64, 128)

    @pytest.fixture(scope="class")
    def wide(self):
        return make_encoder(seed=3, channels=self.WIDTHS), \
            make_level_params(seed=4, channels=self.WIDTHS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [24, 96])
    def test_matches_run_decoder_on_a_zero_bundle(self, wide, size, dtype):
        enc, params = (p.astype(dtype) for p in wide)
        f_in = encode(Tensor(np.transpose(rand_img(size, size), (2, 0, 1)), dtype=dtype), enc)
        zero = ErrorBundle(content=Tensor(np.zeros_like(f_in.stages[-1].data)),
                           style=tuple(Tensor(np.zeros((c, c), dtype=dtype))
                                       for c in self.WIDTHS))
        want, _ = run_decoder(zero, f_in, params)
        twin = ad.shared_params(params)
        got = zero_error_residual(f_in, twin)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got.data, want.data)

        for res in (want, got):
            ad.backward(ad.mean_all(ad.mul(res, res)))
        untouched = []
        for (name, a), b in zip(params.named_tensors().items(), twin.tensors()):
            assert a.grad is not None or name.endswith("phi_u.weight"), name
            if b.grad is None:  # an error-side parameter: its gradient is exactly 0
                untouched.append(name)
                b_grad = np.zeros_like(b.data)
            else:
                b_grad = b.grad
            a_grad = np.zeros_like(a.data) if a.grad is None else a.grad
            np.testing.assert_array_equal(b_grad, a_grad, err_msg=name)
        assert "head.weight" not in untouched and "fuse.w" in untouched
