"""Coarse-to-fine stylization over an image pyramid, plus runtime knobs.

The coarsest level starts from `start_estimate` (all zeros), the one place
the initial estimate is chosen: stylization, training's frozen prefix and
level calibration all call it. Each level's transition network predicts a
signed residual which is added to the running estimate and clamped back to
[0,1]; the result is upsampled and handed to the next finer level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Encoder, mix_bundles  # noqa: F401 (re-exported)
from .errors import ContractError
from .images import build_level_inputs, from_chw, upsample
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

    `content` and `style` are images at the estimate's resolution, or their
    encoded targets as `encoder.pair_errors` takes them (training's frozen
    prefix passes the ones its target cache holds).
    """
    shapes = [x.shape for x in (icing, content, style) if isinstance(x, np.ndarray)]
    if any(shape != icing.shape for shape in shapes):
        raise ContractError(f"refine_level: resolution mismatch {' vs '.join(map(str, shapes))}")
    residual = etnet_forward(content, style, icing, params, enc, alpha)
    return np.clip(icing + from_chw(residual.data), 0.0, 1.0).astype(np.float32)


def start_estimate(coarsest_content):
    """The estimate the coarsest level refines: all zeros, shaped like its content."""
    return np.zeros_like(coarsest_content)


def _walk(icing, pairs, start, model: PyramidModel, alpha=None) -> StylizeResult:
    """Refine from pairs[start] to the finest level, upsampling between levels."""
    k = model.depth
    intermediates = []
    for idx in range(start, k):
        c_k, s_k = pairs[idx]
        out = refine_level(icing, c_k, s_k, model.levels[k - idx - 1], model.encoder, alpha)
        intermediates.append(out)
        if idx + 1 < k:
            icing = upsample(out)
    return StylizeResult(final=intermediates[-1], intermediates=intermediates)


def stylize(content, style, model: PyramidModel, alpha: float | None = None) -> StylizeResult:
    """Full pyramid pass; returns the final image and per-level intermediates.

    `alpha` in [0, 1] sets the style strength; None (or 1) is plain stylization.
    """
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ContractError(f"stylize: alpha {alpha} outside [0, 1]")
    k = model.depth
    h, w = content.shape[0], content.shape[1]
    need = 8 * 2 ** (k - 1)
    if h % need or w % need:
        raise ContractError(f"stylize: dimensions {h}x{w} must be divisible by {need}")
    pairs = build_level_inputs(content, style, levels=k)
    return _walk(start_estimate(pairs[0][0]), pairs, 0, model, alpha)


def stylize_alpha(content, style, model: PyramidModel, alpha: float) -> StylizeResult:
    """Stylization with adjustable strength; alpha=1 is plain stylize."""
    return stylize(content, style, model, alpha=alpha)


def refine_external(external, content, style, model: PyramidModel, level: int) -> StylizeResult:
    """Adopt an externally produced stylization at `level` and finish the pyramid."""
    k = model.depth
    if not 1 <= level <= k:
        raise ContractError(f"refine_external: level {level} outside 1..{k}")
    pairs = build_level_inputs(content, style, levels=k)
    want = pairs[k - level][0].shape
    if external.shape != want:
        raise ContractError(f"refine_external: input shape {external.shape}, "
                            f"level {level} needs {want}")
    return _walk(external, pairs, k - level, model)
