"""Tensor engine tests: loop oracles, closed forms, finite differences."""

import copy
import gc
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from restyle import autodiff as ad
from restyle import gradcheck
from restyle.autodiff import ConvParams, Tensor
from restyle.errors import ContractError


def conv2d_loops(x, weight, bias, stride, pad):
    """Direct six-nested-loop convolution oracle (float64)."""
    c_out, c_in, k, _ = weight.shape
    _, h, w = x.shape
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += weight[co, ci, ky, kx] * xp[ci, oy * stride + ky, ox * stride + kx]
                out[co, oy, ox] = acc + (bias[co] if bias is not None else 0.0)
    return out


def conv2d_grads_loops(x, weight, g, pad):
    """(dx, dW) of a stride-1 conv for output gradient g, by direct loops (float64)."""
    c_out, c_in, k, _ = weight.shape
    _, h, w = x.shape
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros(weight.shape)
    for co in range(c_out):
        for oy in range(g.shape[1]):
            for ox in range(g.shape[2]):
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            dxp[ci, oy + ky, ox + kx] += weight[co, ci, ky, kx] * g[co, oy, ox]
                            dw[co, ci, ky, kx] += xp[ci, oy + ky, ox + kx] * g[co, oy, ox]
    return dxp[:, pad:pad + h, pad:pad + w], dw


def _relu(a):
    """ReLU of a (C, H, W) map through conv2d's fused clamp, by an identity 1x1 conv."""
    eye = np.eye(a.shape[0], dtype=a.dtype)[:, :, None, None]
    return ad.conv2d(a, ConvParams(weight=Tensor(eye)), relu=True)


def matmul_loops(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 4, 4)))
        p = ConvParams(weight=Tensor(np.ones((1, 1, 1, 1))))
        out = ad.conv2d(x, p)
        np.testing.assert_array_equal(out.data, x.data)

    def test_linear_combination(self):
        x = Tensor(np.ones((2, 3, 3)))
        w = np.zeros((1, 2, 1, 1), dtype=np.float32)
        w[0, 0], w[0, 1] = 2.0, 3.0
        p = ConvParams(weight=Tensor(w))
        out = ad.conv2d(x, p)
        np.testing.assert_allclose(out.data, np.full((1, 3, 3), 5.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3]))
        h, w = int(rng.integers(k, 9)), int(rng.integers(k, 9))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((c_in, h, w)).astype(np.float32)
        wgt = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        p = ConvParams(weight=Tensor(wgt), padding=pad)
        got = ad.conv2d(Tensor(x), p).data
        want = conv2d_loops(x.astype(np.float64), wgt.astype(np.float64), None, 1, pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("k,c_in,c_out,h,w", [
        (3, 16, 48, 12, 12), (3, 48, 16, 9, 7), (3, 2, 3, 1, 2), (1, 48, 16, 12, 12), (1, 3, 5, 4, 6)])
    def test_same_conv_bitwise_equals_padded_columns(self, k, c_in, c_out, h, w):
        """The pad-free tap-row paths reproduce np.pad + shifted copies + GEMM byte
        for byte: out and dx as `padded_tap_conv`, dW as k GEMMs of np.pad tap rows."""
        rng = np.random.default_rng(k * 100 + c_in)
        pad = k // 2
        x = Tensor(rng.standard_normal((c_in, h, w)).astype(np.float32), requires_grad=True)
        wgt = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                     requires_grad=True)
        g = rng.standard_normal((c_out, h, w)).astype(np.float32)
        out = ad.conv2d(x, ConvParams(weight=wgt, padding=pad))
        ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        flipped = wgt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert out.data.tobytes() == padded_tap_conv(x.data, wgt.data, pad).tobytes()
        assert wgt.grad.tobytes() == padded_tap_weight_grad(x.data, g, k, pad).tobytes()
        assert x.grad.tobytes() == padded_tap_conv(g, flipped, k - 1 - pad).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,pad,c_in,c_out,h,w", [
        (3, 1, 3, 4, 6, 6), (3, 1, 3, 4, 5, 8), (3, 0, 2, 3, 7, 5), (3, 2, 2, 3, 4, 6),
        (3, 3, 2, 2, 3, 5), (1, 0, 3, 2, 5, 7), (1, 1, 2, 3, 4, 3)],
        ids=["3-1-6x6", "3-1-5x8", "3-0-7x5", "3-2-4x6", "3-3-3x5", "1-0-5x7", "1-1-4x3"])
    def test_forward_and_gradients_match_loop_oracle(self, k, pad, c_in, c_out, h, w, dtype):
        """out, dx and dW against float64 loops, on square and non-square maps;
        pad > k - 1 takes dx's crop."""
        rng = np.random.default_rng(k * 10 + pad + h)
        x = Tensor(rng.standard_normal((c_in, h, w)).astype(dtype), requires_grad=True)
        wgt = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(dtype), requires_grad=True)
        out = ad.conv2d(x, ConvParams(weight=wgt, padding=pad))
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        x64, w64, g64 = (a.astype(np.float64) for a in (x.data, wgt.data, g))
        dx, dw = conv2d_grads_loops(x64, w64, g64, pad)
        np.testing.assert_allclose(out.data, conv2d_loops(x64, w64, None, 1, pad), atol=1e-5)
        np.testing.assert_allclose(x.grad, dx, atol=1e-5)
        np.testing.assert_allclose(wgt.grad, dw, atol=1e-5)

    def test_reference_case_pad1(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        wgt = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        p = ConvParams(weight=Tensor(wgt), padding=1)
        got = ad.conv2d(Tensor(x), p).data
        want = conv2d_loops(x.astype(np.float64), wgt.astype(np.float64), None, 1, 1)
        assert got.shape == (4, 8, 8)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((2, 4, 4)))
        p = ConvParams(weight=Tensor(np.zeros((1, 3, 1, 1))))
        with pytest.raises(ContractError):
            ad.conv2d(x, p)

    def test_kernel_size_restricted(self):
        with pytest.raises(ContractError):
            ConvParams(weight=Tensor(np.zeros((1, 1, 5, 5))))


def padded_tap_rows(x, k, pad):
    """Full tap rows of a (C, H, W) array through np.pad: the reference `_tap_rows`."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    wo = xp.shape[2] - k + 1
    return np.stack([xp[:, :, kx:kx + wo] for kx in range(k)])


def padded_tap_conv(x, weight, pad):
    """conv2d's forward pass in one band, from np.pad tap rows."""
    c_out, c_in, k, _ = weight.shape
    taps = padded_tap_rows(x, k, pad)
    ho, wo = taps.shape[2] - k + 1, taps.shape[3]
    wk = weight.transpose(2, 0, 3, 1).reshape(k * c_out, k * c_in)
    part = (wk @ taps.reshape(k * c_in, -1)).reshape(k, c_out, ho + k - 1, wo)
    out = part[0, :, :ho]
    for ky in range(1, k):
        out = out + part[ky, :, ky:ky + ho]
    return out


def padded_tap_weight_grad(x, g, k, pad):
    """conv2d's weight gradient: one GEMM per ky of g by the np.pad tap rows."""
    c_out, ho, wo = g.shape
    taps = padded_tap_rows(x, k, pad)
    c_in = taps.shape[1]
    dw = np.stack([g.reshape(c_out, -1) @ np.ascontiguousarray(
        taps[:, :, ky:ky + ho]).reshape(k * c_in, -1).T for ky in range(k)])
    return np.ascontiguousarray(dw.reshape(k, c_out, k, c_in).transpose(1, 3, 0, 2))


def _banded(monkeypatch, rows, k, c_in, c_out, wo, dtype):
    """Set COLUMN_BYTES to give `rows` output rows per band of this conv."""
    row_bytes = k * (c_in + c_out) * wo * np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "COLUMN_BYTES", (rows + k - 1) * row_bytes + row_bytes // 2)


class TestBandedColumns:
    """conv2d works in bands of output rows whose tap rows and partial maps fit
    in COLUMN_BYTES, and every result keeps the bits of one band, in float32
    and float64."""

    CASES = [(3, 1), (3, 0), (3, 2), (1, 0), (1, 1)]  # k, pad
    IDS = [f"{k}-{pad}-1" for k, pad in CASES]  # k-pad-stride; conv2d's stride is always 1

    @pytest.mark.parametrize("k,pad", CASES, ids=IDS)
    def test_band_columns_equal_padded_columns(self, k, pad):
        """Every band of 1 to 5 rows of `_tap_rows` is its slice of the np.pad tap rows."""
        rng = np.random.default_rng(k * 10 + pad)
        x = rng.standard_normal((3, 9, 7)).astype(np.float32)
        full = padded_tap_rows(x, k, pad)
        ho = 9 + 2 * pad - k + 1
        for r0 in range(ho):
            for r1 in range(r0 + 1, min(ho, r0 + 5) + 1):
                got = np.ascontiguousarray(ad._tap_rows(x, k, pad, range(r0, r1)))
                assert got.tobytes() == np.ascontiguousarray(full[:, :, r0:r1 + k - 1]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,pad", CASES, ids=IDS)
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_bands_bitwise_equal_full_gemm(self, monkeypatch, dtype, k, pad, x_grad):
        """A 48->16 conv of a 96x94 map, plain and with the fused ReLU, in
        bands of 19-20 rows, in bands of 23-24 rows (equal where 24 divides
        the rows, so that earlier bands write the rows that lie below the
        map in the last band) and in one-row bands: out, x.grad (when x
        needs one) and weight.grad (when the weight does, and None when it
        is frozen, as in the encoder) keep the bits of one band. Bands this
        large keep each GEMM above 1e6 multiply-adds; see conv2d. An
        unpadded 1x1 conv is one GEMM, with no bands."""
        rng = np.random.default_rng(k * 10 + pad)
        c_in, c_out, h, w = 48, 16, 96, 94
        ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
        x = rng.standard_normal((c_in, h, w)).astype(dtype)
        wgt = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        g = rng.standard_normal((c_out, ho, wo)).astype(dtype)
        calls = []
        tap_rows = ad._tap_rows
        monkeypatch.setattr(ad, "_tap_rows",
                            lambda *a, **kw: calls.append(a[3]) or tap_rows(*a, **kw))

        def run(w_grad, relu):
            calls.clear()
            xt = Tensor(x, requires_grad=x_grad)
            wt = Tensor(wgt, requires_grad=w_grad)
            out = ad.conv2d(xt, ConvParams(weight=wt, padding=pad), relu=relu)
            forward_calls = list(calls)
            assert out.requires_grad == (x_grad or w_grad)
            if out.requires_grad:
                ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            assert (xt.grad is not None) == x_grad and (wt.grad is not None) == w_grad
            return forward_calls, [a.tobytes() for a in (out.data, xt.grad, wt.grad) if a is not None]

        unpadded_1x1 = k == 1 and pad == 0
        for relu in (False, True):
            for w_grad in (False, True):
                monkeypatch.setattr(ad, "COLUMN_BYTES", 1 << 40)
                one_band, want = run(w_grad, relu)
                assert one_band == ([] if unpadded_1x1 else [range(ho)])
                for rows in (20, 24, 1):
                    _banded(monkeypatch, rows, k, c_in, c_out, wo, dtype)
                    bands, got = run(w_grad, relu)
                    if unpadded_1x1:
                        assert bands == []
                    else:
                        n = -(-ho // rows)
                        assert [len(r) for r in bands] == [ho * (i + 1) // n - ho * i // n
                                                           for i in range(n)]
                        assert len(bands) >= 3
                    assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,pad", CASES, ids=IDS)
    def test_relu_is_bitwise_max_of_conv(self, dtype, k, pad):
        """conv2d(relu=True) is np.maximum(conv2d, 0) byte for byte, and its x
        and weight gradients are the plain conv's for the output gradient
        masked by y > 0; (1, 1) takes dx's crop (pad > k - 1)."""
        rng = np.random.default_rng(k * 10 + pad + 7)
        x = rng.standard_normal((4, 9, 7)).astype(dtype)
        wgt = rng.standard_normal((5, 4, k, k)).astype(dtype)
        g = rng.standard_normal((5, 9 + 2 * pad - k + 1, 7 + 2 * pad - k + 1)).astype(dtype)

        def run(relu, g):
            xt, wt = Tensor(x, requires_grad=True), Tensor(wgt, requires_grad=True)
            out = ad.conv2d(xt, ConvParams(weight=wt, padding=pad), relu=relu)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            return out.data, xt.grad, wt.grad

        plain, _, _ = run(False, g)
        fused, dx, dw = run(True, g)
        assert fused.dtype == dtype
        assert fused.tobytes() == np.maximum(plain, 0).tobytes()
        _, dx_want, dw_want = run(False, g * (plain > 0))
        assert dx.tobytes() == dx_want.tobytes() and dw.tobytes() == dw_want.tobytes()

    def test_trainable_weight_gets_one_full_gemm(self, monkeypatch):
        """A trainable 48->16 conv of a 96x94 map: the forward pass runs in
        bands of 19-20 rows (an unpadded 1x1 conv in none), and the backward
        pass rebuilds the full tap rows once for the weight gradient's k
        GEMMs, to the bits of the np.pad reference."""
        calls = []
        tap_rows = ad._tap_rows
        monkeypatch.setattr(ad, "_tap_rows",
                            lambda *a, **kw: calls.append((a[0], a[3])) or tap_rows(*a, **kw))
        for k, pad in self.CASES:
            rng = np.random.default_rng(k * 10 + pad + 3)
            c_in, c_out, h, w = 48, 16, 96, 94
            ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
            _banded(monkeypatch, 20, k, c_in, c_out, wo, np.float32)
            calls.clear()
            x = Tensor(rng.standard_normal((c_in, h, w)).astype(np.float32), requires_grad=True)
            wgt = Tensor(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                         requires_grad=True)
            out = ad.conv2d(x, ConvParams(weight=wgt, padding=pad))
            n = 0 if (k, pad) == (1, 0) else -(-ho // 20)
            assert [len(r) for _, r in calls] == [ho * (i + 1) // n - ho * i // n for i in range(n)]
            assert n == 0 or n >= 3
            g = rng.standard_normal(out.shape).astype(np.float32)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            assert calls[n][0] is x.data and calls[n][1] == range(ho)
            assert all(a is not x.data for a, _ in calls[n + 1:])  # dx reads g
            assert wgt.grad.tobytes() == padded_tap_weight_grad(x.data, g, k, pad).tobytes()

    def test_trainable_conv_keeps_no_columns(self):
        """Between its forward and backward pass a trainable 48->16 3x3 conv of a
        96 px map holds its output, not its 5.4 MB of tap rows."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((48, 96, 96)).astype(np.float32), requires_grad=True)
        wgt = Tensor(rng.standard_normal((16, 48, 3, 3)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, ConvParams(weight=wgt, padding=1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < out.data.nbytes + (1 << 20) < 48 * 9 * 96 * 96 * 4
        ad.backward(ad.sum_all(out))
        assert wgt.grad.shape == wgt.shape and x.grad.shape == x.shape

    def test_frozen_conv_memory_is_bounded(self):
        """A 48->16 3x3 conv of a 384 px map, whose full columns would take 255 MB."""
        x = Tensor(np.random.default_rng(0).standard_normal((48, 384, 384)).astype(np.float32))
        p = ConvParams(weight=Tensor(np.ones((16, 48, 3, 3), dtype=np.float32)), padding=1)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_columns = 48 * 9 * 384 * 384 * 4
        # the output and one band at a time
        assert peak < out.data.nbytes + ad.COLUMN_BYTES + (1 << 20) < full_columns // 8


@dataclass
class _OneConv:
    """The smallest named parameter table: one conv."""

    conv: ConvParams

    def named_tensors(self):
        return {"conv.weight": self.conv.weight}


def _conv_bytes(x, weight, pad, g):
    """Bytes of y, x.grad and (when the weight is trainable) weight.grad of one conv."""
    xt = Tensor(x, requires_grad=True)
    out = ad.conv2d(xt, ConvParams(weight=weight, padding=pad))
    ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
    return [a.tobytes() for a in (out.data, xt.grad, weight.grad) if a is not None]


class TestWeightLayouts:
    """A 3x3 weight array's forward and dx GEMM layouts are built once, kept
    while the array lives and make it read-only; 1x1 weights get none."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pad", [1, 0])
    @pytest.mark.parametrize("trainable", [False, True])
    def test_reused_layouts_keep_fresh_bits(self, dtype, pad, trainable):
        """Two convs on one weight each give the bytes of a fresh copy's conv."""
        rng = np.random.default_rng(pad)
        wgt = rng.standard_normal((5, 4, 3, 3)).astype(dtype)
        g = rng.standard_normal((5, 5 + 2 * pad, 4 + 2 * pad)).astype(dtype)
        w = Tensor(wgt.copy(), requires_grad=trainable)
        for _ in range(2):
            x = rng.standard_normal((4, 7, 6)).astype(dtype)
            w.zero_grad()
            got = _conv_bytes(x, w, pad, g)
            assert set(ad._LAYOUTS[id(w.data)]) == {False, True}
            assert got == _conv_bytes(x, Tensor(wgt.copy(), requires_grad=trainable), pad, g)

    def test_replaced_array_gets_new_layouts_and_dies(self):
        """A weight array replaced as `Adam.step` replaces it: the next conv reads
        the new values, and the table does not keep the old array alive."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        g = rng.standard_normal((5, 6, 6)).astype(np.float32)
        w = Tensor(rng.standard_normal((5, 4, 3, 3)).astype(np.float32), requires_grad=True)
        _conv_bytes(x, w, 1, g)
        old, old_entry = weakref.ref(w.data), ad._LAYOUTS[id(w.data)]
        w.data = w.data - np.float32(0.1) * w.grad
        w.zero_grad()
        got = _conv_bytes(x, w, 1, g)
        assert got == _conv_bytes(x, Tensor(w.data.copy(), requires_grad=True), 1, g)
        gc.collect()
        assert old() is None
        assert all(entry is not old_entry for entry in ad._LAYOUTS.values())

    def test_used_3x3_weight_is_read_only(self):
        """An in-place write into a used 3x3 weight raises; 1x1 weights, padded
        or not, stay writeable and get no entry."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        ad.conv2d(Tensor(x), ConvParams(weight=w, padding=1))
        with pytest.raises(ValueError):
            w.data *= 2
        for pad in (0, 1):
            one = Tensor(rng.standard_normal((3, 2, 1, 1)).astype(np.float32),
                         requires_grad=True)
            _conv_bytes(x, one, pad, np.ones((3, 5 + 2 * pad, 5 + 2 * pad), np.float32))
            assert id(one.data) not in ad._LAYOUTS and one.data.flags.writeable
            one.data *= 2

    def test_twin_shares_layouts_and_copies_carry_none(self, monkeypatch):
        """The `shared_params` twin reads its original's layouts without a
        rebuild; `copy.deepcopy` and `cast_params` give writeable arrays with
        no entry."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 5, 5)).astype(np.float32))
        params = _OneConv(ConvParams(
            weight=Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                          requires_grad=True), padding=1))
        builds = []
        weight_rows = ad._weight_rows
        monkeypatch.setattr(ad, "_weight_rows",
                            lambda *a: builds.append(a[1]) or weight_rows(*a))
        ad.backward(ad.sum_all(ad.conv2d(x, params.conv)))
        twin = ad.shared_params(params)
        ad.backward(ad.sum_all(ad.conv2d(x, twin.conv)))
        assert twin.conv.weight.data is params.conv.weight.data and builds == [False]
        for other in (copy.deepcopy(params), ad.cast_params(params, np.float32)):
            data = other.conv.weight.data
            assert data.flags.writeable and id(data) not in ad._LAYOUTS


class TestElementwiseAndSpatial:
    def test_relu(self):
        out = _relu(Tensor([[[-1.0, 0.0, 2.0]]]))
        np.testing.assert_array_equal(out.data, [[[0.0, 0.0, 2.0]]])

    def test_pool_then_upsample_constant(self):
        x = Tensor(np.full((3, 4, 4), 0.7))
        y = ad.upsample_nearest2x(ad.avgpool2x(x))
        np.testing.assert_allclose(y.data, x.data, rtol=1e-6)

    def test_upsample_single_pixel(self):
        y = ad.upsample_nearest2x(Tensor(np.full((1, 1, 1), 7.0)))
        np.testing.assert_array_equal(y.data, np.full((1, 2, 2), 7.0))

    def test_avgpool_mean(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        x[0, 1, 0] = x[0, 1, 1] = 1.0
        out = ad.avgpool2x(Tensor(x))
        np.testing.assert_allclose(out.data, [[[0.5]]])

    def test_avgpool_odd_raises(self):
        with pytest.raises(ContractError):
            ad.avgpool2x(Tensor(np.zeros((1, 3, 4))))

    def test_concat_channels(self):
        a = Tensor(np.ones((2, 3, 3)))
        b = Tensor(np.full((1, 3, 3), 2.0))
        out = ad.concat_channels([a, b])
        assert out.shape == (3, 3, 3)
        np.testing.assert_array_equal(out.data[2], np.full((3, 3), 2.0))

    def test_concat_spatial_mismatch_raises(self):
        with pytest.raises(ContractError):
            ad.concat_channels([Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros((1, 4, 3)))])

    def test_cast_gradient_keeps_input_dtype(self):
        x = Tensor(np.array([0.5, -1.25], dtype=np.float32), requires_grad=True)
        y = ad.cast(x, np.float64)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y.data, x.data.astype(np.float64))
        ad.backward(ad.sum_all(ad.scale(y, 3.0)))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.full(2, 3.0, dtype=np.float32))

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ContractError):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def _pool_reference(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4), dtype=x.dtype)


def _block_sum_reference(g):
    c, h, w = g.shape
    return g.reshape(c, h // 2, 2, w // 2, 2).sum(axis=(2, 4))


def _repeat_reference(x):
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _forward_backward(op, x, rng):
    """op's output and the gradient it passes back for a random output gradient."""
    t = Tensor(x, requires_grad=True)
    out = op(t)
    g = rng.standard_normal(out.shape).astype(x.dtype)
    ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
    return out.data, g, t.grad


class TestSpatialKernelsExact:
    """Pooling and upsampling equal numpy's reshape-reduce and repeat formulas bit for bit."""

    SHAPES = [(3, 96, 96), (16, 48, 48), (48, 96, 96), (128, 6, 6), (2, 4, 6)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_avgpool2x(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape).astype(dtype)
        out, g, gx = _forward_backward(ad.avgpool2x, x, rng)
        _assert_same_bytes(out, _pool_reference(x))
        _assert_same_bytes(gx, _repeat_reference(g) * dtype(0.25))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_upsample_nearest2x(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        c, h, w = shape
        x = rng.standard_normal((c, h // 2, w // 2)).astype(dtype)
        out, g, gx = _forward_backward(ad.upsample_nearest2x, x, rng)
        _assert_same_bytes(out, _repeat_reference(x))
        _assert_same_bytes(gx, _block_sum_reference(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_pixel_wide_output_within_rounding(self, dtype):
        # numpy adds a one-pixel-wide block left to right, not pairwise. Each
        # order of four terms errs by at most 1.5 eps * sum|x|, so the two
        # differ by at most 3 eps * sum|x| (a few ulps of the result).
        rng = np.random.default_rng(8)
        eps = np.finfo(dtype).eps
        x = rng.standard_normal((16, 6, 2)).astype(dtype)
        pooled, _, _ = _forward_backward(ad.avgpool2x, x, rng)
        _, g, gx = _forward_backward(ad.upsample_nearest2x, x[:, :3, :1], rng)
        assert pooled.dtype == gx.dtype == dtype
        assert np.all(np.abs(pooled - _pool_reference(x)) <= 3 * eps * _pool_reference(np.abs(x)))
        assert np.all(np.abs(gx - _block_sum_reference(g))
                      <= 3 * eps * _block_sum_reference(np.abs(g)))


class TestMatmulSoftmax:
    def test_softmax_symmetry(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], rtol=1e-6)

    def test_softmax_closed_form(self):
        out = ad.softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax_rows(Tensor(rng.standard_normal((6, 9)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-6)
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_softmax_large_logits_stable(self):
        out = ad.softmax_rows(Tensor([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spread", [120.0, 800.0])
    def test_softmax_flushes_subnormals(self, dtype, spread):
        """No probability is subnormal: those below the smallest normal float
        become exactly 0, and the rows still sum to 1."""
        tiny = np.finfo(dtype).tiny
        ramp = np.linspace(0.0, -spread, 4001)
        logits = np.stack([ramp, ramp[::-1], np.roll(ramp, 1234) + 7.0]).astype(dtype)
        out = ad.softmax_rows(Tensor(logits)).data
        assert out.dtype == dtype
        assert not np.any((out > 0) & (out < tiny))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-6)
        # where the ramp spans the dtype's subnormal range, an unflushed softmax has subnormals
        shifted = logits - logits.max(axis=1, keepdims=True)
        plain = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        if -np.log(tiny) < spread:
            assert np.any((plain > 0) & (plain < tiny))

    def test_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((4, 6)).astype(np.float32)
        got = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(a, b), atol=1e-6)

    def test_matmul_dim_mismatch_raises(self):
        with pytest.raises(ContractError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_flatten_unflatten_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 4)).astype(np.float32)
        flat = ad.flatten_pixels(Tensor(x))
        assert flat.shape == (8, 3)
        back = ad.unflatten_pixels(flat, 2, 4)
        np.testing.assert_array_equal(back.data, x)


class TestGram:
    def test_zeros(self):
        out = ad.gram(Tensor(np.zeros((3, 2, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_hand_computed(self):
        f = np.zeros((2, 1, 2), dtype=np.float32)
        f[0, 0, 0] = 1.0
        f[1, 0, 1] = 1.0
        out = ad.gram(Tensor(f))
        np.testing.assert_allclose(out.data, [[0.25, 0.0], [0.0, 0.25]])

    def test_matches_explicit_product(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((4, 6, 6)).astype(np.float32)
        flat = f.reshape(4, 36).astype(np.float64)
        want = flat @ flat.T / (4 * 36)
        got = ad.gram(Tensor(f)).data
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            f = np.random.default_rng(seed).standard_normal((5, 4, 4)).astype(np.float32)
            g = ad.gram(Tensor(f)).data
            np.testing.assert_allclose(g, g.T, atol=1e-6)
            for _ in range(10):
                x = rng.standard_normal(5)
                assert x @ g @ x >= -1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(1).random((3, 4)), requires_grad=True)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_half_sum_of_squares_gives_x(self):
        data = np.random.default_rng(2).standard_normal((2, 5)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        ad.backward(ad.scale(ad.sum_all(ad.mul(x, x)), 0.5))
        np.testing.assert_allclose(x.grad, data, rtol=1e-6)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ad.sum_all(x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * np.ones(3) + 1e-9, atol=1e-6)

    def test_only_leaves_keep_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.sum_all(y)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * x.data)
        assert y.grad is None and loss.grad is None

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.scale(x, 2.0))

    def test_untracked_graph_records_nothing(self):
        x = Tensor(np.ones((1, 2, 2)))
        out = _relu(ad.add(x, x))
        assert out._backward is None and out._parents == ()

    def test_first_gradient_is_a_copy(self):
        """The first gradient into a tensor is a contiguous copy in its dtype:
        changing the array passed in afterwards leaves t.grad as it was."""
        t = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        g = np.arange(6.0).reshape(2, 3).T
        ad.accumulate(t, g)
        g[:] = -1.0
        assert t.grad.dtype == np.float32 and t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, np.arange(6.0).reshape(2, 3).T)
        ad.accumulate(t, g)
        np.testing.assert_array_equal(t.grad, np.arange(6.0).reshape(2, 3).T - 1.0)
        np.testing.assert_array_equal(g, np.full((3, 2), -1.0))


def _conv_case(k, pad, c_in=3, c_out=4, size=6, relu=False):
    """A conv gradcheck case on a size x size map, or an (H, W) one."""
    h, w = (size, size) if isinstance(size, int) else size

    def conv(x, wgt):
        return ad.conv2d(x, ConvParams(weight=wgt, padding=pad), relu=relu)

    return gradcheck.case(conv, ((c_in, h, w), 1.0), ((c_out, c_in, k, k), 1.0))


def _channel_rows(a):
    """(C, H, W) -> (C, H*W), the layout nonlocal_block's keys and values use."""
    return ad.reshape(a, (a.shape[0], -1))


class TestFiniteDifferences:
    """Analytic gradients vs central differences on float64 shadows."""

    def test_case_draws_leaves_then_one_projection_per_output(self):
        shape = (2, 3, 1)
        build = gradcheck.case(lambda a, b: (ad.mul(a, b), ad.gram(a)), (shape, 0.5), (shape, 1))
        leaves, forward = build(np.random.default_rng(4))
        rng = np.random.default_rng(4)
        a, b, p_mul, p_gram = (rng.standard_normal(s) for s in [shape, shape, shape, (2, 2)])
        np.testing.assert_array_equal([t.data for t in leaves], [a * 0.5, b])
        flat = a.reshape(2, 3)
        want = np.sum(a * b * p_mul) * 0.5 + np.sum(flat @ flat.T / 24 * p_gram)
        np.testing.assert_allclose(forward().item(), want)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k,pad,size,relu", [
        (1, 0, 6, False), (3, 1, 6, False), (3, 0, 6, False), (3, 2, 6, False),
        (3, 1, (5, 8), False), (3, 1, (5, 8), True)],
        ids=["1-0-False", "3-1-False", "3-0-False",  # k-pad-bias; no bias
             "3-2-False", "3-1-5x8", "3-1-5x8-relu"])
    def test_conv2d(self, seed, k, pad, size, relu):
        err = gradcheck.check_gradients(_conv_case(k, pad, size=size, relu=relu), seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k,pad,c_in,c_out,size", [
        (3, 1, 5, 2, 6),  # "same" 3x3, narrowing
        (1, 0, 5, 2, 6),  # 1x1, narrowing
        (1, 1, 4, 3, 7),  # 1x1 over a padded border; dx crops (pad > k - 1)
        (3, 2, 3, 4, 6),  # 3x3 over a two-pixel border
        (3, 3, 2, 3, (3, 5)),  # dx crops (pad > k - 1), non-square
        (3, 1, 4, 3, (5, 7)),  # "same" 3x3, non-square
    ], ids=["3-1-5-2-6", "1-0-5-2-6", "1-1-4-3-7", "3-2-3-4-6", "3-3-2-3-3x5", "3-1-4-3-5x7"])
    def test_conv2d_channels(self, seed, k, pad, c_in, c_out, size):
        build = _conv_case(k, pad, c_in=c_in, c_out=c_out, size=size)
        assert gradcheck.check_gradients(build, seed) < 1e-4

    def test_leaves_keep_their_arrays(self):
        """Each central difference runs on a perturbed copy: afterwards every
        leaf holds its original array object, with its original values."""
        kept = []

        def build(rng):
            leaves, forward = _conv_case(3, 1)(rng)
            kept.extend((leaf, leaf.data, leaf.data.copy()) for leaf in leaves)
            return leaves, forward

        assert gradcheck.check_gradients(build, 0) < 1e-4
        for leaf, array, values in kept:
            assert leaf.data is array and array.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        build = gradcheck.case(ad.matmul, ((4, 3), 1.0), ((3, 5), 1.0))
        assert gradcheck.check_gradients(build, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name,op,shape", [
        ("relu", _relu, (3, 4, 4)),
        ("avgpool2x", ad.avgpool2x, (2, 4, 6)),
        ("upsample2x", ad.upsample_nearest2x, (2, 3, 3)),
        ("softmax_rows", ad.softmax_rows, (4, 6)),
        ("gram", ad.gram, (3, 4, 4)),
        ("flatten", ad.flatten_pixels, (3, 2, 4)),
        ("reshape", _channel_rows, (3, 2, 4)),
        ("clamp01", ad.clamp01, (4, 4)),
        ("mean", ad.mean_all, (3, 4)),
    ], ids=["relu-relu-shape0", "avgpool2x-avgpool2x-shape1",
            "upsample2x-upsample_nearest2x-shape2", "softmax_rows-softmax_rows-shape3",
            "gram-gram-shape4", "flatten-flatten_pixels-shape5", "reshape-reshape-shape6",
            "clamp01-clamp01-shape7", "mean-mean_all-shape8"])
    def test_unary_ops(self, seed, name, op, shape):
        assert gradcheck.check_gradients(gradcheck.case(op, (shape, 1.0)), seed) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_concat_channels(self, seed):
        build = gradcheck.case(lambda a, b: ad.concat_channels([a, b]),
                               ((2, 3, 3), 1.0), ((3, 3, 3), 1.0))
        assert gradcheck.check_gradients(build, seed) < 1e-4


class TestDeterminism:
    def test_conv_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
            p = ConvParams(weight=Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
                           padding=1)
            return ad.conv2d(x, p).data.tobytes()
        assert run() == run()

    def test_orthogonal_init_deterministic(self):
        w1 = ad.conv_weight(np.random.default_rng(5), 8, 3, 3, gain=np.sqrt(2))
        w2 = ad.conv_weight(np.random.default_rng(5), 8, 3, 3, gain=np.sqrt(2))
        assert w1.data.tobytes() == w2.data.tobytes()
        assert w1.shape == (8, 3, 3, 3)
