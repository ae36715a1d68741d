"""Coarse-to-fine stylization over an image pyramid, plus runtime knobs.

`walk` is the one coarse-to-fine loop, so the one place the estimate moves
between levels: it takes an estimate and one (params, content, style) step
per level, coarsest first, runs `refine_level` at each level and upsamples
the estimate between levels. `stylize`, `refine_external` and training's
frozen prefix all call it. Each level's transition network predicts a
signed residual which is added to the running estimate and clamped back to
[0,1]. The coarsest level starts from `start_estimate` (all zeros), the one
place the initial estimate is chosen; level calibration calls it too.
`stylize` and `refine_external` check their pair once, in `_level_pairs`, by the
one side rule, `encoder.side_multiple(levels)`: 8 * 2^(levels-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Encoder, mix_bundles, side_multiple  # noqa: F401 (mix_bundles re-exported)
from .errors import ContractError
from .images import _validate, from_chw, pyramid, upsample
from .transition import LevelParams, etnet_forward


@dataclass
class PyramidModel:
    """Shared fixed encoder plus one transition network per pyramid level."""

    encoder: Encoder
    levels: list[LevelParams]  # levels[k-1] refines at scale 1/2^(k-1)

    @property
    def depth(self):
        return len(self.levels)


@dataclass
class StylizeResult:
    final: np.ndarray
    intermediates: list[np.ndarray]  # per-level outputs, coarsest first


def refine_level(icing, content, style, params: LevelParams, enc: Encoder,
                 alpha: float | None = None) -> np.ndarray:
    """One refinement: clamp(estimate + residual) at a single level.

    `content` and `style` are images at the estimate's resolution, or encoded
    targets as `etnet_forward` takes them (training's walk passes its cached ones).
    """
    shapes = [x.shape for x in (icing, content, style) if isinstance(x, np.ndarray)]
    if any(shape != icing.shape for shape in shapes):
        raise ContractError(f"refine_level: resolution mismatch {' vs '.join(map(str, shapes))}")
    residual = etnet_forward(content, style, icing, params, enc, alpha)
    return np.clip(icing + from_chw(residual.data), 0.0, 1.0).astype(np.float32, copy=False)


def start_estimate(coarsest_content):
    """The estimate the coarsest level refines: all zeros, shaped like its content."""
    return np.zeros_like(coarsest_content)


def walk(icing, steps, enc: Encoder, alpha: float | None = None) -> list[np.ndarray]:
    """Refine `icing` by each (params, content, style) step of `refine_level`,
    coarsest level first, upsampling between levels; returns each level's output."""
    outputs = []
    for params, content, style in steps:
        if outputs:
            icing = upsample(outputs[-1])
        outputs.append(refine_level(icing, content, style, params, enc, alpha))
    return outputs


def _level_pairs(name, content, style, level):
    """Per-level (content, style) pairs for a walk from `level`, coarsest first, of
    two (H, W, 3) images of one shape whose sides divide by `side_multiple(level)`."""
    for img in (content, style):
        _validate(img, name)
    if content.shape != style.shape:
        raise ContractError(f"{name}: content {content.shape} vs style {style.shape}")
    if level < 1:
        raise ContractError(f"{name}: levels must be >= 1, got {level}")
    h, w, _ = content.shape
    need = side_multiple(level)
    if h % need or w % need:
        raise ContractError(f"{name}: dimensions {h}x{w} must be divisible by {need}")
    return list(zip(pyramid(content, level), pyramid(style, level)))[::-1]


def _walk_pairs(icing, pairs, model: PyramidModel, alpha=None) -> StylizeResult:
    """`walk` from level len(pairs) to 1 over per-level (content, style) pairs."""
    steps = [(p, c, s) for p, (c, s) in zip(reversed(model.levels[:len(pairs)]), pairs)]
    outputs = walk(icing, steps, model.encoder, alpha)
    return StylizeResult(final=outputs[-1], intermediates=outputs)


def stylize(content, style, model: PyramidModel, alpha: float | None = None) -> StylizeResult:
    """Full pyramid pass; returns the final image and per-level intermediates.

    `alpha` in [0, 1] sets the style strength; None (or 1) is plain stylization.
    """
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ContractError(f"stylize: alpha {alpha} outside [0, 1]")
    pairs = _level_pairs("stylize", content, style, model.depth)
    return _walk_pairs(start_estimate(pairs[0][0]), pairs, model, alpha)


def stylize_alpha(content, style, model: PyramidModel, alpha: float) -> StylizeResult:
    """Stylization with adjustable strength; alpha=1 is plain stylize."""
    return stylize(content, style, model, alpha=alpha)


def refine_external(external, content, style, model: PyramidModel, level: int) -> StylizeResult:
    """Adopt an externally produced stylization at `level` and finish the pyramid."""
    k = model.depth
    if not 1 <= level <= k:
        raise ContractError(f"refine_external: level {level} outside 1..{k}")
    pairs = _level_pairs("refine_external", content, style, level)
    want = pairs[0][0].shape
    if external.shape != want:
        raise ContractError(f"refine_external: input shape {external.shape}, "
                            f"level {level} needs {want}")
    return _walk_pairs(external, pairs, model)
