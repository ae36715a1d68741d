"""Losses, per-level training loops, evaluation, and model persistence.

Levels are trained independently, coarsest first: `stylizer.walk` through
the frozen coarser levels gives each sample's starting estimate. Gradients
reach only the level under training, and all loss norms are mean-squared so
the weight schedule transfers across resolutions. A zero-pair regularizer
drives the decoder to emit a zero residual when content, style, and estimate
coincide, which the feature branch of the architecture does not guarantee.
Every error-side map of that zero bundle is exactly 0, so its term runs the
decoder's feature branch alone (`transition.zero_error_residual`).

A level starts from seeded draws that `transition.calibrate` rescales on
`probe_cases`. `sample_objective` is the one training objective: the
residual of `etnet_forward`, the recovering clamp below, the content, style
and smoothness terms of the refined image and the zero-pair term, summed by
`combine_losses`. A level's targets are the pair of per-level (stack, Gram
stack) lists of the content and of the style, this level first: the form
`TargetCache.features` returns, which the frozen walk also reads, and
`image_targets` builds from images. Training, evaluation, `content_loss` and
`style_loss` all score through `level_terms`. Above the trained level only
the stacks' deepest stage is read, so the cache keeps only that stage there.

Training takes its losses on `recovering_clamp01(estimate + residual)`, not
on `ad.clamp01`: the value is the same clamp, but a pixel outside [0, 1]
still receives the gradient whenever a descent step would move it back
toward the range. With the exact clamp a saturated pixel gets no gradient,
so nothing bounds the residual and outputs drift to near-binary values.
Stylization itself uses the exact clamp. The weighted loss terms are summed
in float64 (`combine_losses`).

At levels whose images are at least `CONCURRENT_MIN_SIDE` pixels wide, the
samples of a batch run two at a time: the calling thread takes one sample
and one worker thread the next. Most of a sample's time is spent in numpy
kernels that release the interpreter lock, so the two overlap on two cores.
The worker's graph runs over `ad.shared_params`, so each sample accumulates
its own gradients, and they are summed in sample order, g2 + g1 as
`ad.backward` adds them, so trained weights and loss logs are byte-identical
to running the samples one after the other. OpenBLAS is pinned to one thread
for the span of each batch and set back to its previous count afterwards,
also when the batch raises: with two BLAS threads each, the two samples ran
slower than one after the other. Where numpy's OpenBLAS thread setter cannot
be found, the samples run in order.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import itertools
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .config import RunConfig, format_config, load_config, read_text
from .corpus import CorpusSpec, make_corpus
from .encoder import Encoder, FeatureStack, _as_image_tensor, encode, encoder_layout, \
    gram_stack, make_encoder, pair_errors
from .errors import CheckpointError, ConfigError, ContractError, TrainingDiverged
from .images import pyramid, upsample
from .stylizer import PyramidModel, start_estimate, stylize, walk
from .transition import LevelParams, calibrate, etnet_forward, level_layout, make_level_params, \
    zero_error_residual


# ---------------------------------------------------------------------------
# losses

@dataclass(frozen=True)
class LossWeights:
    content: float = RunConfig.lambda_pc
    style_per_level: tuple[float, ...] = RunConfig.lambda_ps  # level 1 = full resolution
    tv: float = RunConfig.lambda_tv
    zero_pair: float = RunConfig.zero_pair_weight

    @staticmethod
    def from_config(cfg: RunConfig):
        return LossWeights(content=cfg.lambda_pc, style_per_level=tuple(cfg.lambda_ps),
                           tv=cfg.lambda_tv, zero_pair=cfg.zero_pair_weight)


def _msq(a, b):
    d = ad.sub(a, b)
    return ad.mean_all(ad.mul(d, d))


def _stack_chain(img_t, count, enc):
    """Encoder stacks of img and its successive half-resolution versions."""
    stacks = []
    cur = img_t
    for i in range(count):
        if i > 0:
            cur = ad.avgpool2x(cur)
        stacks.append(encode(cur, enc))
    return stacks


def _level_feats(img_t, count, enc):
    """(stack, Gram stack) of img and of each of its successive half-resolution versions."""
    return [(stack, gram_stack(stack)) for stack in _stack_chain(img_t, count, enc)]


def _image_term(name, stylized, target, level, depth, enc, half):
    """One half (0 content, 1 style) of `level_terms` against `target` in both
    roles; the target is encoded once for both."""
    cs = _as_image_tensor(stylized)
    t = _as_image_tensor(target)
    if cs.shape != t.shape:
        raise ContractError(f"{name}: {cs.shape} vs {t.shape}")
    feats = _level_feats(t, depth - level + 1, enc)
    return level_terms(cs, (feats, feats), enc)[half]


def content_loss(stylized, content, level, depth, enc: Encoder):
    """Deep-feature distance at this level plus all coarser-level terms.

    Both images are at level-`level` resolution; for each coarser level j the
    pair is downsampled j-level more times and compared again. This is the
    content half of `level_terms`.
    """
    return _image_term("content_loss", stylized, content, level, depth, enc, 0)


def style_loss(stylized, style, level, depth, enc: Encoder):
    """Gram distances at every stage, plus deepest-stage terms after each
    further downsampling to coarser levels: the style half of `level_terms`."""
    return _image_term("style_loss", stylized, style, level, depth, enc, 1)


def recovering_clamp01(a):
    """`ad.clamp01` whose gradient also reaches an out-of-range value when a
    descent step would move it back toward [0,1]: below 0 only a negative
    gradient, above 1 only a positive one."""
    x = a.data

    def bw(g):
        if a.requires_grad:
            mask = ((x >= 0) | (g < 0)) & ((x <= 1) | (g > 0))
            ad.accumulate(a, g * mask)

    return ad.record(np.clip(x, 0, 1), (a,), bw)


def tv_loss(img):
    """Mean of squared forward differences, horizontal and vertical."""
    t = _as_image_tensor(img)
    x = t.data
    if x.ndim != 3 or (x.shape[1] < 2 and x.shape[2] < 2):
        raise ContractError(f"tv_loss: need a (C, H, W) map with H or W >= 2, got {x.shape}")
    dh = x[:, :, 1:] - x[:, :, :-1]
    dv = x[:, 1:, :] - x[:, :-1, :]
    count = dh.size + dv.size
    val = (np.sum(dh * dh, dtype=x.dtype) + np.sum(dv * dv, dtype=x.dtype)) / x.dtype.type(count)

    def bw(g):
        if t.requires_grad:
            gx = np.zeros_like(x)
            coeff = g * 2.0 / count
            gx[:, :, 1:] += coeff * dh
            gx[:, :, :-1] -= coeff * dh
            gx[:, 1:, :] += coeff * dv
            gx[:, :-1, :] -= coeff * dv
            ad.accumulate(t, gx)

    return ad.record(np.asarray(val, dtype=x.dtype), (t,), bw)


def combine_losses(l_pc, l_ps, l_tv, level, weights: LossWeights, zero_sq=None):
    """Weighted float64 total for one level; `zero_sq` is the zero-pair residual power.

    The sum is taken in float64 so that a small weighted term (tv at 1e-6)
    is not lost below float32 rounding of the total; each term's gradient
    reaches it in the term's own dtype.
    """
    def term(loss, weight):
        return ad.scale(ad.cast(loss, np.float64), weight)

    total = ad.add(ad.add(term(l_pc, weights.content),
                          term(l_ps, weights.style_per_level[level - 1])),
                   term(l_tv, weights.tv))
    if zero_sq is not None:
        total = ad.add(total, term(zero_sq, weights.zero_pair))
    return total


def image_targets(content, style, count, enc):
    """Targets of a (content, style) pair over `count` levels, pooling the images:
    the pair (c_feats, s_feats) of per-level (stack, Gram stack) lists, this
    level first, the form `TargetCache.features` gives."""
    return _level_feats(content, count, enc), _level_feats(style, count, enc)


def level_terms(stylized, targets, enc):
    """(l_pc, l_ps) of a stylized (3, H, W) image against `targets`, a pair of
    per-level (stack, Gram stack) lists of the content and of the style, this
    level first: the content term at this level and at every coarser one, the
    style term at every stage of this level, then at the deepest stage of each
    coarser one."""
    c_feats, s_feats = targets
    stacks = _stack_chain(stylized, len(c_feats), enc)
    content = [_msq(stack.stages[-1], c_stack.stages[-1])
               for stack, (c_stack, _) in zip(stacks, c_feats)]
    style = [_msq(ad.gram(f), g) for f, g in zip(stacks[0].stages, s_feats[0][1])]
    style += [_msq(ad.gram(stack.stages[-1]), grams[-1])
              for stack, (_, grams) in zip(stacks[1:], s_feats[1:])]
    return functools.reduce(ad.add, content), functools.reduce(ad.add, style)


def sample_objective(icing_t, targets, params: LevelParams, enc, level,
                     weights: LossWeights):
    """The training objective of one sample, (total, l_pc, l_ps, l_tv): the
    level's network refines the estimate `icing_t` toward `targets` (as
    `level_terms` takes them), its losses are taken on the recovering clamp,
    and the zero-pair term asks for a zero residual on the content's own features,
    whose errors against themselves are exactly zero: `zero_error_residual`
    runs only the decoder's feature branch for it."""
    c_stack, s_grams = targets[0][0][0], targets[1][0][1]
    residual = etnet_forward(c_stack, s_grams, icing_t, params, enc)
    stylized = recovering_clamp01(ad.add(icing_t, residual))
    zero_res = zero_error_residual(c_stack, params)
    l_pc, l_ps = level_terms(stylized, targets, enc)
    l_tv = tv_loss(stylized)
    total = combine_losses(l_pc, l_ps, l_tv, level, weights,
                           zero_sq=ad.mean_all(ad.mul(zero_res, zero_res)))
    return total, l_pc, l_ps, l_tv


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the largest gradient element whose float32 square `Adam.step` can hold
ADAM_MAX_GRAD = np.sqrt(np.finfo(np.float32).max)


class Adam:
    def __init__(self, tensors):
        self.tensors = list(tensors)
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for tensor, m, v in zip(self.tensors, self.m, self.v):
            g = tensor.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            tensor.data = tensor.data - np.float32(lr) * update

    def zero_grad(self):
        for t in self.tensors:
            t.grad = None


def cosine_lr(base, step, total):
    if total <= 0:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))


# ---------------------------------------------------------------------------
# cached encoder targets

class TargetCache:
    """Lazy per-(image, level) pyramids, encoder stacks and Gram tables
    (untracked) of a corpus, for training level `level`. An image is keyed by
    (role, idx): role "c" is `contents[idx]`, role "s" is `styles[idx]`.

    At `level` an entry keeps the whole stack and Gram stack: the trained
    level's decoder input and style terms read every stage. Above it an entry
    keeps every Gram, which the frozen walk's error bundles read, but only the
    stack's deepest stage, the one stage its readers take (the walk's content
    error and `level_terms`' coarser content terms).

    The two samples of a concurrent batch share one cache without a lock:
    when both miss the same entry, both compute it, bit for bit the same,
    and the later store is kept; neither waits for the other's encode.
    """

    def __init__(self, enc: Encoder, depth: int, level: int, contents, styles):
        self.enc = enc
        self.depth = depth
        self.level = level
        self._corpus = {"c": contents, "s": styles}
        self._images = {}
        self._feats = {}

    def level_images(self, role, idx):
        """`pyramid` of the image: index j-1 holds its level-j version."""
        key = (role, idx)
        if key not in self._images:
            self._images[key] = pyramid(self._corpus[role][idx], self.depth)
        return self._images[key]

    def features(self, role, idx, level):
        """(stack Tensors, gram Tensors) of the level-`level` version of the image;
        above the trained level the stack holds the deepest stage only."""
        key = (role, idx, level)
        if key not in self._feats:
            stack = encode(self.level_images(role, idx)[level - 1], self.enc)
            grams = gram_stack(stack)
            if level > self.level:
                stack = FeatureStack(stages=stack.stages[-1:])
            self._feats[key] = (stack, grams)
        return self._feats[key]


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainResult:
    params: LevelParams
    log_lines: list[str]


# every 3rd sample is an identity pair, alternating (content, content) and
# (style, style): these teach faithful reconstruction, which underwrites the
# fixed-point behavior and adds target diversity in both roles
IDENTITY_PAIR_PERIOD = 3

# A level's samples run two at a time from this image side up. On a 2-vCPU
# box, per step against the samples in order (acceptance config, batch 2):
# 96 px -22 to -29%, 48 px -20 to -25%, 24 px +6 to +15%, where a sample
# spends most of its time in Python, which holds the interpreter lock
# (BENCH_parallel_batch.json).
CONCURRENT_MIN_SIDE = 48


def probe_cases(cfg: RunConfig, level: int, enc: Encoder, contents, styles):
    """Four (error bundle, features) calibration probes at `level`: content i and
    style i + 1, from the start estimate, or at a finer level their mean image."""
    cases = []
    for i in range(4):
        c = pyramid(contents[i % len(contents)], level)[-1]
        s = pyramid(styles[(i + 1) % len(styles)], level)[-1]
        icing = start_estimate(c) if level == cfg.levels else ((c + s) / 2).astype(np.float32)
        cases.append(pair_errors(c, s, icing, enc))
    return cases


def init_level_params(cfg: RunConfig, level: int, enc: Encoder, contents, styles) -> LevelParams:
    """Seeded level initialization, magnitude-calibrated on probes of the corpus."""
    params = make_level_params([cfg.seed, 50 + level], channels=cfg.channels, trainable=False)
    calibrate(params, probe_cases(cfg, level, enc, contents, styles))
    return params.set_trainable(True)


def check_level(cfg: RunConfig, level: int):
    """Raise `ConfigError` unless `level` is one of the config's pyramid levels."""
    if not 1 <= level <= cfg.levels:
        raise ConfigError(f"level {level} outside 1..{cfg.levels}")


def train_level(cfg: RunConfig, level: int, enc: Encoder, frozen: dict[int, LevelParams],
                contents=None, styles=None) -> TrainResult:
    """Train one level against frozen coarser levels.

    `frozen` maps level number -> trained params for every level above
    `level`. Sampling, initialization, and accumulation order are fixed by
    cfg.seed, so identical configs produce identical results, whether a
    batch's samples run concurrently or in order (see the module docstring).
    """
    check_level(cfg, level)
    depth = cfg.levels
    for j in range(level + 1, depth + 1):
        if j not in frozen:
            raise ConfigError(f"missing trained checkpoint for coarser level {j}")
    if contents is None or styles is None:
        contents, styles = make_corpus(CorpusSpec(seed=cfg.seed, size=cfg.image_size,
                                                  content_count=cfg.content_count,
                                                  style_count=cfg.style_count))
    weights = LossWeights.from_config(cfg)
    params = init_level_params(cfg, level, enc, contents, styles)
    for j, p in frozen.items():
        p.set_trainable(False)
    opt = Adam(params.tensors())
    cache = TargetCache(enc, depth, level, contents, styles)
    samples = _sample_keys(np.random.default_rng([cfg.seed, 100 + level]),
                           len(contents), len(styles))
    concurrent = cfg.batch > 1 and cfg.image_size >> (level - 1) >= CONCURRENT_MIN_SIDE
    blas = _blas_threads() if concurrent else None
    log_lines = []

    def run(level_params, keys):
        return _train_sample(cfg, level, enc, frozen, level_params, cache, weights, *keys)

    # every overflow surfaces as a refused loss or gradient below, so numpy's
    # warnings would only precede the one TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            opt.zero_grad()
            batch = list(itertools.islice(samples, cfg.batch))
            if blas is None:
                rows = [run(params, keys) for keys in batch]
            else:
                with _one_blas_thread(*blas):
                    rows = _run_in_pairs(run, params, batch)
            sums = np.zeros(4)
            for row in rows:
                sums += row
            means = sums / cfg.batch
            if not np.all(np.isfinite(means)):
                raise TrainingDiverged(f"level {level} step {step}: non-finite loss {means}")
            for name, t in params.named_tensors().items():
                if t.grad is not None:
                    t.grad /= cfg.batch
                    # false for NaN and inf too
                    if not np.all(np.abs(t.grad) <= ADAM_MAX_GRAD):
                        raise TrainingDiverged(
                            f"level {level} step {step}: gradient in {name} "
                            f"is non-finite or beyond Adam's {ADAM_MAX_GRAD:.4g}")
            opt.step(cosine_lr(cfg.lr, step, cfg.steps))
            cells = "\t".join(repr(float(v)) for v in means)
            log_lines.append(f"{step}\t{cells}")
    return TrainResult(params=params, log_lines=log_lines)


def _sample_keys(rng, n_contents, n_styles):
    """The (content key, style key) of each training sample, in order.

    Every sample draws a content index, then a style index; every
    IDENTITY_PAIR_PERIOD-th sample pairs one of them with itself instead.
    """
    for counter in itertools.count():
        ci = int(rng.integers(n_contents))
        si = int(rng.integers(n_styles))
        if counter % IDENTITY_PAIR_PERIOD == IDENTITY_PAIR_PERIOD - 1:
            if (counter // IDENTITY_PAIR_PERIOD) % 2 == 0:
                yield ("c", ci), ("c", ci)
            else:
                yield ("s", si), ("s", si)
        else:
            yield ("c", ci), ("s", si)


@functools.cache
def _blas_threads():
    """numpy's OpenBLAS (get, set) thread-count functions, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread(get, set_):
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _run_in_pairs(run, params, batch):
    """Loss rows of `run(params, keys)` over a batch, two samples at a time.

    The calling thread runs a sample over `params` while a worker thread runs
    the next over a `shared_params` copy; the copy's gradients are then added
    to the ones in `params` as `ad.backward` would have added them, so the sum
    is the same as running the samples in order.
    """
    twin = ad.shared_params(params)
    rows = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        for i in range(0, len(batch), 2):
            if i + 1 == len(batch):
                rows.append(run(params, batch[i]))
                break
            # the worker sees the caller's numpy error state (np.errstate)
            future = worker.submit(contextvars.copy_context().run, run, twin, batch[i + 1])
            try:
                rows.append(run(params, batch[i]))
            finally:
                rows.append(future.result())
            for t, u in zip(params.tensors(), twin.tensors()):
                if u.grad is not None:
                    t.grad = u.grad if t.grad is None else u.grad + t.grad
                    u.grad = None
    return rows


def _train_sample(cfg, level, enc, frozen, params, cache, weights, c_key, s_key):
    """One forward/backward pass of the `cache` images keyed `c_key` and `s_key`;
    returns (l_pc, l_ps, l_tv, total) floats."""
    depth = cfg.levels
    levels = range(level, depth + 1)
    c_feats = [cache.features(*c_key, j) for j in levels]
    s_feats = [cache.features(*s_key, j) for j in levels]

    # the frozen coarser levels run stylize's own walk, toward the cached targets,
    # so this level trains on the estimate stylization hands it
    icing = start_estimate(cache.level_images(*c_key)[depth - 1])
    prefix = walk(icing, [(frozen[j], c_feats[j - level][0], s_feats[j - level][1])
                          for j in range(depth, level, -1)], enc)
    if prefix:
        icing = upsample(prefix[-1])

    total, l_pc, l_ps, l_tv = sample_objective(_as_image_tensor(icing), (c_feats, s_feats),
                                               params, enc, level, weights)
    ad.backward(total)
    return np.array([l_pc.item(), l_ps.item(), l_tv.item(), total.item()])


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalResult:
    content: np.ndarray          # (depth,) mean content loss per refinement count
    style: np.ndarray            # (depth,)
    per_pair_content: np.ndarray  # (pairs, depth)
    per_pair_style: np.ndarray


def full_resolution_losses(img, content, style, enc):
    """Plain (no pyramid terms) content and style loss at full resolution."""
    l_c, l_s = level_terms(img, image_targets(content, style, 1, enc), enc)
    return l_c.item(), l_s.item()


def evaluate(model: PyramidModel, pairs) -> EvalResult:
    """Loss table after 1..K refinements, each inspected at full resolution.

    Intermediate outputs are nearest-upsampled to full size, so the table
    shows how much each extra refinement tightens the style statistics.
    """
    depth = model.depth
    pc = np.zeros((len(pairs), depth))
    ps = np.zeros((len(pairs), depth))
    for row, (content, style) in enumerate(pairs):
        targets = image_targets(content, style, 1, model.encoder)
        for j, img in enumerate(stylize(content, style, model).intermediates):
            for _ in range(depth - j - 1):
                img = upsample(img)
            l_c, l_s = level_terms(img, targets, model.encoder)
            pc[row, j], ps[row, j] = l_c.item(), l_s.item()
    return EvalResult(content=pc.mean(axis=0), style=ps.mean(axis=0),
                      per_pair_content=pc, per_pair_style=ps)


# ---------------------------------------------------------------------------
# model persistence

CONFIG_SNAPSHOT = "config.txt"
ENCODER_FILE = "encoder.ckpt"


def level_file(level):
    return f"level{level}.ckpt"


def save_level_checkpoint(path, params: LevelParams):
    checkpoint.write(path, {k: t.data for k, t in params.named_tensors().items()})


def init_model_dir(model_dir, cfg: RunConfig, enc: Encoder):
    """Write (or verify) the config snapshot and encoder checkpoint.

    Once the directory holds a level checkpoint, a different configuration or
    encoder raises `ConfigError`: the trained levels belong to the ones on
    disk. Until then (a new directory, or one whose first `train` failed) a
    different one is written over, atomically. An existing file that cannot
    be read is refused either way, with its path.
    """
    os.makedirs(model_dir, exist_ok=True)
    trained = any(re.fullmatch(r"level[0-9]+\.ckpt", name) for name in os.listdir(model_dir))
    snap_path = os.path.join(model_dir, CONFIG_SNAPSHOT)
    snapshot = format_config(cfg)
    old = read_text(snap_path) if os.path.exists(snap_path) else None
    if old != snapshot:
        if trained and old is not None:
            raise ConfigError(f"{snap_path} exists with a different configuration")
        checkpoint.write_atomic(snap_path, snapshot.encode("utf-8"))
    enc_path = os.path.join(model_dir, ENCODER_FILE)
    state = {k: t.data for k, t in enc.named_tensors().items()}
    old = checkpoint.read(enc_path) if os.path.exists(enc_path) else None
    if old is None or set(old) != set(state) or not all(
            np.array_equal(old[k], state[k]) for k in state):
        if trained and old is not None:
            raise ConfigError(f"{enc_path} does not match the configured encoder")
        checkpoint.write(enc_path, state)


def make_model_encoder(cfg: RunConfig) -> Encoder:
    return make_encoder([cfg.seed, 17], channels=cfg.channels)


def _read_params(params, path):
    """Fill `params` from the checkpoint at `path`.

    `load_state` checks that the file holds exactly the names and shapes of
    the layout `config.txt` declares; the values must also be finite. Any
    fault raises `CheckpointError` naming `path`, once (`checkpoint.read`
    names it in its own errors).
    """
    state = checkpoint.read(path)
    try:
        ad.load_state(params, state)
    except ContractError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    for name, t in params.named_tensors().items():
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"{path}: {name} has non-finite values")
    return params


def load_frozen_levels(model_dir, cfg: RunConfig, above_level) -> dict[int, LevelParams]:
    """The trained levels above `above_level`, frozen, taken from their checkpoints."""
    frozen = {}
    for j in range(above_level + 1, cfg.levels + 1):
        path = os.path.join(model_dir, level_file(j))
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint for level {j}: {path}")
        frozen[j] = _read_params(level_layout(cfg.channels, ad.placeholder_weight), path)
    return frozen


def load_model_dir(model_dir):
    """Rebuild a PyramidModel (and its config) from a model directory.

    Every weight comes from the checkpoints: nothing is drawn or calibrated.
    """
    snap_path = os.path.join(model_dir, CONFIG_SNAPSHOT)
    if not os.path.exists(snap_path):
        raise ConfigError(f"missing config snapshot: {snap_path}")
    cfg = load_config(snap_path)
    enc_path = os.path.join(model_dir, ENCODER_FILE)
    if not os.path.exists(enc_path):
        raise ConfigError(f"missing encoder checkpoint: {enc_path}")
    enc = _read_params(encoder_layout(cfg.channels, ad.placeholder_weight), enc_path)
    frozen = load_frozen_levels(model_dir, cfg, 0)
    return PyramidModel(encoder=enc, levels=[frozen[k] for k in range(1, cfg.levels + 1)]), cfg
