"""Residual-image decoder: non-local error diffusion and cascaded propagation.

Per pyramid level the decoder holds: one fusion matrix combining the deepest
content and style errors, three 1x1 convolutions forming the non-local block
at the deepest scale, one propagation block per scale transition (4->3,
3->2, 2->1), and a linear head emitting the 3-channel residual.

Every convolution here is bias-free. The error-side path is therefore
exactly zero when the error bundle is zero; the feature branch of each
propagation block still contributes, which training suppresses with the
zero-pair regularizer.

A propagation block is three steps: `fused_error`, then `block_error` and
`block_residual`, which are independent of each other. `propagation_block`,
`run_decoder` and the site-by-site `calibrate` all run them. Every per-pixel
linear map runs before the nearest 2x upsample it commutes with, at the
coarser resolution. The finest block's error map has no consumer, so
`run_decoder` and `calibrate` skip its `block_error` step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConvParams, Tensor
from .encoder import RELU_GAIN, Encoder, ErrorBundle, FeatureStack, fuse, pair_errors, \
    rescale_to_rms
from .errors import ContractError


@dataclass
class NonLocalParams:
    """1x1 bias-free convolutions: value (h), query (u), and key (g) maps."""

    psi_h: ConvParams
    psi_u: ConvParams
    psi_g: ConvParams


@dataclass
class PropagationBlockParams:
    """One scale transition i -> i-1.

    phi_t: 1x1, C_i -> C_{i-1}, feeds the fusion with the finer style delta
    psi:   learnable (C_{i-1}, C_{i-1}) fusion matrix
    phi_u: 3x3, refines the fused error
    phi_v: 1x1, C_i -> C_{i-1}, adapts the incoming residual feature
    phi_w: 3x3, merges (residual branch, encoder feature, fused error)

    phi_t, psi and phi_v run at scale i, before the upsample; phi_u and phi_w
    run at scale i-1. The finest block's phi_u is unused: its output would
    feed no later block. It stays in the layout so that model directories
    keep one format, and it never receives a gradient.
    """

    phi_t: ConvParams
    psi: Tensor
    phi_u: ConvParams
    phi_v: ConvParams
    phi_w: ConvParams


@dataclass
class LevelParams:
    """All trainable tensors of one pyramid level's transition network."""

    fuse_w: Tensor
    nonlocal_: NonLocalParams
    blocks: list[PropagationBlockParams]
    head: ConvParams
    channels: tuple[int, ...]

    def named_tensors(self):
        out = {"fuse.w": self.fuse_w}
        nl = self.nonlocal_
        out["nonlocal.psi_h.weight"] = nl.psi_h.weight
        out["nonlocal.psi_u.weight"] = nl.psi_u.weight
        out["nonlocal.psi_g.weight"] = nl.psi_g.weight
        for block, i in zip(self.blocks, range(len(self.channels), 1, -1)):
            out[f"block{i}.phi_t.weight"] = block.phi_t.weight
            out[f"block{i}.psi"] = block.psi
            out[f"block{i}.phi_u.weight"] = block.phi_u.weight
            out[f"block{i}.phi_v.weight"] = block.phi_v.weight
            out[f"block{i}.phi_w.weight"] = block.phi_w.weight
        out["head.weight"] = self.head.weight
        return out

    def tensors(self):
        return list(self.named_tensors().values())

    def set_trainable(self, flag):
        for t in self.tensors():
            t.requires_grad = bool(flag)
        return self

    def astype(self, dtype):
        """Dtype-shadow copy (used for float64 finite-difference checks)."""
        return ad.cast_params(self, dtype)


HEAD_GAIN = 0.1
RESIDUAL_INIT_RMS = 0.1


def level_layout(channels, weight) -> LevelParams:
    """One level's layout for the encoder widths `channels`: bias-free 1x1
    convs with padding 0, 3x3 convs with padding 1, and fusion matrices that
    start at the identity.

    `weight(c_out, c_in, k, gain)` supplies each conv weight in a fixed order
    (the non-local h, u, g maps; per block, coarsest first, phi_t, phi_u,
    phi_v, phi_w; the head): seeded draws in `make_level_params`,
    placeholders for a checkpoint to fill when a model directory is loaded.
    """
    c4 = channels[-1]

    def conv(c_out, c_in, k, gain=1.0):
        return ConvParams(weight=weight(c_out, c_in, k, gain), padding=k // 2)

    nonlocal_ = NonLocalParams(psi_h=conv(c4, c4, 1), psi_u=conv(c4, c4, 1),
                               psi_g=conv(c4, c4, 1))
    fuse_w = Tensor(np.eye(c4, dtype=np.float32))
    blocks = []
    for i in range(len(channels) - 1, 0, -1):
        c_i, c_prev = channels[i], channels[i - 1]
        blocks.append(PropagationBlockParams(
            phi_t=conv(c_prev, c_i, 1),
            psi=Tensor(np.eye(c_prev, dtype=np.float32)),
            phi_u=conv(c_prev, c_prev, 3, RELU_GAIN),
            phi_v=conv(c_prev, c_i, 1),
            phi_w=conv(c_prev, 3 * c_prev, 3, RELU_GAIN),
        ))
    head = conv(3, channels[0], 3, HEAD_GAIN)
    return LevelParams(fuse_w=fuse_w, nonlocal_=nonlocal_, blocks=blocks,
                       head=head, channels=tuple(channels))


def make_level_params(seed, channels, trainable=True):
    """Seeded initialization of one level's transition network."""
    rng = np.random.default_rng(seed)
    params = level_layout(channels, functools.partial(ad.conv_weight, rng))
    return params.set_trainable(trainable)


# Upper bound on the attention's (N, N) affinity, N the deepest map's pixel
# count. 1 GiB admits a 1024 px image in float32 (N = 128 * 128).
AFFINITY_BYTES = 1 << 30


def nonlocal_block(err4: Tensor, f_in4: Tensor, p: NonLocalParams) -> Tensor:
    """Diffuse the deepest error map across all positions by affinity.

    Affinity row e is a softmax over positions of the current stylization,
    scored by <query(err at e), key(f_in at p)> / sqrt(C). Each output pixel
    then gathers value-mapped error from every location weighted by the
    affinity into it.

    Keys and values stay in the (C, N) layout of a flattened (C, H, W) map,
    so the product over the (N_err, N_pos) affinity is `v @ A`, already in
    the output's layout: the only N x N array is the affinity itself. The
    1/sqrt(C) scale is applied to the (N, C) queries. `softmax_rows` sets
    affinities below the smallest normal float to 0, so the products never
    run on subnormal operands.

    A map whose affinity would take more than `AFFINITY_BYTES` raises
    `ContractError` before anything is computed, rather than running the
    machine out of memory.
    """
    if err4.shape != f_in4.shape:
        raise ContractError(f"nonlocal_block: {err4.shape} vs {f_in4.shape}")
    c, h, w = err4.shape
    n = h * w
    if n * n * err4.dtype.itemsize > AFFINITY_BYTES:
        raise ContractError(
            f"nonlocal_block: a {h}x{w} deepest map needs a {n}x{n} attention affinity of "
            f"{n * n * err4.dtype.itemsize / 2**30:.2f} GiB, over the "
            f"{AFFINITY_BYTES / 2**30:g} GiB limit; use a smaller image")
    q = ad.scale(ad.flatten_pixels(ad.conv2d(err4, p.psi_u)), 1.0 / np.sqrt(c))  # (N, C)
    k = ad.reshape(ad.conv2d(f_in4, p.psi_g), (c, h * w))                        # (C, N)
    v = ad.reshape(ad.conv2d(err4, p.psi_h), (c, h * w))                         # (C, N)
    affinity = ad.softmax_rows(ad.matmul(q, k))                                  # (N_err, N_pos)
    return ad.reshape(ad.matmul(v, affinity), (c, h, w))


def fused_error(err_i, style_delta_finer, p: PropagationBlockParams):
    """The psi site: the error through phi_t, fused with the style delta, upsampled.

    Both maps are per-pixel and linear, so they run before the nearest
    upsample, on a quarter of the pixels.
    """
    return ad.upsample_nearest2x(fuse(ad.conv2d(err_i, p.phi_t), p.psi, style_delta_finer))


def block_error(fused, p: PropagationBlockParams):
    """The phi_u site: the refined error at 2x, the next finer block's input."""
    return ad.conv2d(fused, p.phi_u, relu=True)


def block_residual(fused, d_i, f_in_finer, p: PropagationBlockParams):
    """The phi_w site: the refined residual feature at 2x. phi_v runs before
    the upsample, which then carries C_{i-1} channels rather than C_i."""
    merged = ad.concat_channels([ad.upsample_nearest2x(ad.conv2d(d_i, p.phi_v)),
                                 f_in_finer, fused])
    return ad.conv2d(merged, p.phi_w, relu=True)


def propagation_block(err_i, d_i, f_in_finer, style_delta_finer, p: PropagationBlockParams):
    """One scale transition: returns (refined error, refined residual) at 2x size."""
    if err_i.shape != d_i.shape:
        raise ContractError(f"propagation_block: {err_i.shape} vs {d_i.shape}")
    c, h, w = err_i.shape
    if (2 * h, 2 * w) != f_in_finer.shape[1:]:
        raise ContractError(
            f"propagation_block: upsampled {(c, 2 * h, 2 * w)} vs feature {f_in_finer.shape}")
    fused = fused_error(err_i, style_delta_finer, p)
    return block_error(fused, p), block_residual(fused, d_i, f_in_finer, p)


def run_decoder(bundle: ErrorBundle, f_in: FeatureStack, params: LevelParams):
    """Decode an error bundle plus current-stylization features to a residual.

    Returns (residual, internals); internals expose the fused deep error,
    the per-scale error maps of every block but the finest, and the
    per-scale residual features.
    """
    err = fuse(bundle.content, params.fuse_w, bundle.style[-1])
    d = nonlocal_block(err, f_in.stages[-1], params.nonlocal_)
    internals = {"err": [err], "d": [d]}
    # blocks run coarsest first; `finer` is the stage index of a block's output scale
    for finer, block in zip(range(len(params.channels) - 2, -1, -1), params.blocks):
        if finer:
            err, d = propagation_block(err, d, f_in.stages[finer], bundle.style[finer], block)
            internals["err"].append(err)
        else:  # nothing reads the finest block's error map
            d = block_residual(fused_error(err, bundle.style[0], block), d, f_in.stages[0],
                               block)
        internals["d"].append(d)
    residual = ad.conv2d(d, params.head)
    return residual, internals


def calibrate(params: LevelParams, cases):
    """Rescale each decoder site in decoder order to unit-RMS outputs (the head to
    RESIDUAL_INIT_RMS) on (error bundle, features) `cases`, each site on the
    rescaled outputs before it (LSUV, Mishkin & Matas 2015): the bilinear
    fusions contract magnitudes by about the Gram scale. The finest block's
    phi_u has no output to calibrate and keeps its drawn scale."""
    errs = rescale_to_rms(params.fuse_w,
                          [fuse(b.content, params.fuse_w, b.style[-1]) for b, _ in cases])
    ds = rescale_to_rms(params.nonlocal_.psi_h.weight,
                        [nonlocal_block(e, f_in.stages[-1], params.nonlocal_)
                         for e, (_, f_in) in zip(errs, cases)])
    for finer, block in zip(range(len(params.channels) - 2, -1, -1), params.blocks):
        fused = rescale_to_rms(block.psi, [fused_error(e, b.style[finer], block)
                                           for e, (b, _) in zip(errs, cases)])
        if finer:
            errs = rescale_to_rms(block.phi_u.weight, [block_error(x, block) for x in fused])
        ds = rescale_to_rms(block.phi_w.weight,
                            [block_residual(x, d, f_in.stages[finer], block)
                             for x, d, (_, f_in) in zip(fused, ds, cases)])
    rescale_to_rms(params.head.weight, [ad.conv2d(d, params.head) for d in ds],
                   target=RESIDUAL_INIT_RMS)


def etnet_forward(content, style, current, params: LevelParams,
                  enc: Encoder, alpha: float | None = None) -> Tensor:
    """The one level forward: signed (3, H, W) residual out.

    `content` and `style` are images or encoded targets, as `encoder.pair_errors`
    takes them. The current stylization is encoded once; its features serve
    both the error computation and the decoder input. `alpha` mixes the errors
    for the runtime style-strength trade-off (see `encoder.pair_errors`).
    """
    bundle, f_in = pair_errors(content, style, current, enc, alpha)
    residual, _ = run_decoder(bundle, f_in, params)
    return residual
