"""Fixed multi-scale feature extractor, error computation, and error fusion.

One shared four-stage convolutional encoder plays every feature-space role:
it extracts the features of the image being refined, defines the errors that
drive the refinement, and measures the perceptual losses. Its weights are
drawn once from a seeded orthogonal initialization and never trained, so the
error space and the loss space coincide.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConvParams, Tensor
from .errors import ContractError
from .images import to_chw

DEFAULT_CHANNELS = (16, 32, 64, 128)
NUM_STAGES = 4
RELU_GAIN = float(np.sqrt(2.0))


def side_multiple(levels=1):
    """What an input's sides must divide by for a walk over `levels` pyramid levels:
    2 per level below the top, times 2 per pooling of the encoder at the coarsest."""
    return 2 ** (levels - 1 + NUM_STAGES - 1)


@dataclass
class Encoder:
    """Four fixed stages; stage i outputs channels[i-1] maps at scale 1/2^(i-1)."""

    stages: list[list[ConvParams]]
    channels: tuple[int, ...]

    def named_tensors(self):
        out = {}
        for i, stage in enumerate(self.stages, start=1):
            for j, conv in enumerate(stage, start=1):
                out[f"encoder.stage{i}.conv{j}.weight"] = conv.weight
        return out

    def astype(self, dtype):
        """Dtype-shadow copy (used for float64 finite-difference checks)."""
        return ad.cast_params(self, dtype)


def _box3(img):
    """3x3 box blur with edge padding, used only for calibration inputs."""
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    acc = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]
    return acc / 9.0


def _calibration_images(rng, size=32, count=8):
    """Mixed smooth/textured probe images for variance calibration."""
    imgs = []
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for i in range(count):
        if i % 4 == 3:
            cell = 4
            mask = (((yy // cell) + (xx // cell)) % 2).astype(bool)
            c0, c1 = rng.random(3).astype(np.float32), rng.random(3).astype(np.float32)
            imgs.append(np.where(mask[:, :, None], c0, c1).astype(np.float32))
        else:
            img = rng.random((size, size, 3)).astype(np.float32)
            for _ in range(i % 4):
                img = _box3(img)
            imgs.append(img.astype(np.float32))
    return imgs


def _stage_forward(x, stage, pool):
    if pool:
        x = ad.avgpool2x(x)
    for conv in stage:
        x = ad.conv2d(x, conv, relu=True)
    return x


PASSTHROUGH = 3  # feature channels per stage that carry (pooled) RGB


def _reserve_passthrough(weight, c_in_passthrough):
    """Rewire the first channels of a conv to copy its first inputs.

    Deep features then retain pooled color planes the way a pretrained
    perceptual network does, which anchors feature matching to pixels;
    purely random features admit far-off metamers.
    """
    w = weight.data
    k = w.shape[2]
    w[:c_in_passthrough] = 0.0
    for c in range(c_in_passthrough):
        w[c, c, k // 2, k // 2] = 1.0


def rescale_to_rms(param: Tensor, outputs, target=1.0):
    """Scale `param` so the outputs it controls linearly have `target` RMS.

    The RMS is taken in float64 over all outputs together; the parameter and
    the outputs are multiplied by the same float32 factor, and the rescaled
    outputs are returned (untracked) for the next site to run on.
    """
    rms = np.sqrt(np.mean([np.mean(o.data.astype(np.float64) ** 2) for o in outputs]))
    factor = np.float32(target / max(float(rms), 1e-8))
    param.data = param.data * factor
    return [Tensor(o.data * factor) for o in outputs]


def encoder_layout(channels, weight) -> Encoder:
    """The encoder's one layout: NUM_STAGES stages of two 3x3 convs with
    padding 1, stage i taking channels[i-2] maps (3 for the first) to
    channels[i-1].

    `weight(c_out, c_in, k, gain)` supplies each conv weight, stage by stage
    and first conv first: seeded draws in `make_encoder`, placeholders for a
    checkpoint to fill when a model directory is loaded.
    """
    if len(channels) != NUM_STAGES:
        raise ContractError(f"encoder: need {NUM_STAGES} channel widths, got {channels}")
    stages = []
    c_prev = 3
    for c in channels:
        stages.append([ConvParams(weight=weight(c, c_prev, 3, RELU_GAIN), padding=1),
                       ConvParams(weight=weight(c, c, 3, RELU_GAIN), padding=1)])
        c_prev = c
    return Encoder(stages=stages, channels=tuple(channels))


def make_encoder(seed, channels=DEFAULT_CHANNELS):
    """Seeded fixed encoder.

    Each stage keeps a few RGB passthrough channels (see above) and is
    rescaled so its features have unit RMS on a deterministic probe set,
    keeping error and loss magnitudes comparable across stages and widths.
    """
    rng = np.random.default_rng(seed)
    enc = encoder_layout(channels, functools.partial(ad.conv_weight, rng))
    # the passthrough chain must be unbroken, so it is all stages or none
    if min(channels) > 2 * PASSTHROUGH:
        for stage in enc.stages:
            for conv in stage:
                _reserve_passthrough(conv.weight, PASSTHROUGH)
    # variance calibration: relu is positively homogeneous, so scaling the
    # second conv of a stage scales the whole stage output linearly
    probes = [Tensor(to_chw(img)) for img in _calibration_images(rng)]
    for i, stage in enumerate(enc.stages):
        probes = rescale_to_rms(stage[1].weight,
                                [_stage_forward(x, stage, pool=i > 0) for x in probes])
    return enc


@dataclass
class FeatureStack:
    """Per-scale feature maps, stages[i] at spatial scale 1/2^i of the input."""

    stages: tuple[Tensor, ...]


@dataclass
class ErrorBundle:
    """Content feature delta at the deepest stage plus per-stage Gram deltas."""

    content: Tensor
    style: tuple[Tensor, ...]


def _as_image_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(to_chw(x))


def encode(img, enc: Encoder) -> FeatureStack:
    """Run the fixed encoder; accepts an (H,W,3) array or a (3,H,W) Tensor."""
    x = _as_image_tensor(img)
    if x.data.ndim != 3 or x.shape[0] != 3:
        raise ContractError(f"encode: expected 3-channel input, got {x.shape}")
    h, w = x.shape[1], x.shape[2]
    need = side_multiple()
    if h % need or w % need:
        raise ContractError(f"encode: dimensions {h}x{w} must be divisible by {need}")
    feats = []
    for i, stage in enumerate(enc.stages):
        x = _stage_forward(x, stage, pool=i > 0)
        feats.append(x)
    return FeatureStack(stages=tuple(feats))


def gram_stack(stack: FeatureStack):
    return tuple(ad.gram(f) for f in stack.stages)


def errors_between(target_content_feat, target_style_grams, current: FeatureStack) -> ErrorBundle:
    """Error bundle of a current stack against precomputed targets."""
    content = ad.sub(target_content_feat, current.stages[-1])
    style = tuple(ad.sub(tg, ad.gram(f)) for tg, f in zip(target_style_grams, current.stages))
    return ErrorBundle(content=content, style=style)


def mix_bundles(a: ErrorBundle, b: ErrorBundle, alpha: float) -> ErrorBundle:
    """Per-component linear interpolation: alpha*a + (1-alpha)*b."""

    def mix(x, y):
        return ad.add(ad.scale(x, alpha), ad.scale(y, 1.0 - alpha))

    return ErrorBundle(content=mix(a.content, b.content),
                       style=tuple(mix(x, y) for x, y in zip(a.style, b.style)))


def pair_errors(content, style, current, enc: Encoder,
                alpha: float | None = None) -> tuple[ErrorBundle, FeatureStack]:
    """Error bundle of `current` toward (content, style), plus current's features.

    `content` is an image or its `FeatureStack`, and `style` an image or its
    `gram_stack`, so targets encoded once can serve many calls; each image
    given is encoded once. With `alpha` the bundle is mixed with the errors
    toward the content's own Grams, alpha*style + (1-alpha)*content: the
    runtime style-strength trade-off.
    """
    f_in = encode(current, enc)
    c_stack = content if isinstance(content, FeatureStack) else encode(content, enc)
    s_grams = style if isinstance(style, tuple) else gram_stack(encode(style, enc))
    bundle = errors_between(c_stack.stages[-1], s_grams, f_in)
    if alpha is not None:
        toward_content = errors_between(c_stack.stages[-1], gram_stack(c_stack), f_in)
        bundle = mix_bundles(bundle, toward_content, alpha)
    return bundle, f_in


def compute_errors(target_c, target_s, current, enc: Encoder) -> ErrorBundle:
    """Content error at the deepest stage and style Gram deltas at every stage.

    content = F4(target_c) - F4(current); style[i] = G_i(target_s) - G_i(current).
    """
    tc = _as_image_tensor(target_c)
    ts = _as_image_tensor(target_s)
    cur = _as_image_tensor(current)
    if tc.shape != ts.shape or tc.shape != cur.shape:
        raise ContractError(
            f"compute_errors: image shapes differ: {tc.shape}, {ts.shape}, {cur.shape}")
    return pair_errors(tc, ts, cur, enc)[0]


def fuse(content_err: Tensor, w: Tensor, style_err: Tensor) -> Tensor:
    """Bilinear fusion of a content error map with a style Gram delta.

    Pixels become rows; each row is multiplied by the learnable matrix `w`
    and then by the style delta, and the result is folded back to (C, H, W).
    """
    if content_err.data.ndim != 3:
        raise ContractError(f"fuse: content error must be (C,H,W), got {content_err.shape}")
    c, h, wid = content_err.shape
    if w.shape != (c, c) or style_err.shape != (c, c):
        raise ContractError(
            f"fuse: channel mismatch: content C={c}, w {w.shape}, style {style_err.shape}")
    flat = ad.flatten_pixels(content_err)
    mixed = ad.matmul(ad.matmul(flat, w), style_err)
    return ad.unflatten_pixels(mixed, h, wid)
