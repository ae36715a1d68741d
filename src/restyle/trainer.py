"""Losses, per-level training loops, evaluation, and model persistence.

Levels are trained independently, coarsest first: the frozen coarser levels
supply each sample's starting estimate, and gradients flow only into the
level under training. All loss norms are mean-squared so the weight schedule
transfers across resolutions. A zero-pair regularizer drives the decoder to
emit a zero residual when content, style, and estimate coincide, which the
feature branch of the architecture does not guarantee by itself.

A level starts from seeded draws that `transition.calibrate` rescales on
`probe_cases`. Training and evaluation take their content and style terms
from `level_terms`.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tensor
from .config import RunConfig, format_config, load_config, read_text
from .corpus import CorpusSpec, make_corpus
from .encoder import Encoder, ErrorBundle, FeatureStack, _as_image_tensor, encode, \
    encoder_layout, errors_between, gram_stack, make_encoder, pair_errors
from .errors import CheckpointError, ConfigError, ContractError, TrainingDiverged
from .images import pyramid, upsample
from .stylizer import PyramidModel, refine_level, start_estimate, stylize
from .transition import LevelParams, calibrate, level_layout, make_level_params, run_decoder


# ---------------------------------------------------------------------------
# losses

@dataclass(frozen=True)
class LossWeights:
    content: float = 1.0
    style_per_level: tuple[float, ...] = (1.0, 5.0, 8.0)  # level 1 = full resolution
    tv: float = 1e-6
    zero_pair: float = 0.1

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


def _content_terms(stacks, targets):
    return [_msq(stack.stages[-1], tgt) for stack, tgt in zip(stacks, targets)]


def _style_terms(stacks, gram_targets, deep_targets):
    terms = [_msq(ad.gram(f), tg) for f, tg in zip(stacks[0].stages, gram_targets)]
    for stack, tg in zip(stacks[1:], deep_targets):
        terms.append(_msq(ad.gram(stack.stages[-1]), tg))
    return terms


def _sum(terms):
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def content_loss(stylized, content, level, depth, enc: Encoder):
    """Deep-feature distance at this level plus all coarser-level terms.

    Both images are at level-`level` resolution; for each coarser level j the
    pair is downsampled j-level more times and compared again.
    """
    cs = _as_image_tensor(stylized)
    c = _as_image_tensor(content)
    if cs.shape != c.shape:
        raise ContractError(f"content_loss: {cs.shape} vs {c.shape}")
    count = depth - level + 1
    stacks = _stack_chain(cs, count, enc)
    targets = [s.stages[-1] for s in _stack_chain(c, count, enc)]
    return _sum(_content_terms(stacks, targets))


def style_loss(stylized, style, level, depth, enc: Encoder):
    """Gram distances at every stage, plus deepest-stage terms after each
    further downsampling to coarser levels."""
    cs = _as_image_tensor(stylized)
    s = _as_image_tensor(style)
    if cs.shape != s.shape:
        raise ContractError(f"style_loss: {cs.shape} vs {s.shape}")
    count = depth - level + 1
    stacks = _stack_chain(cs, count, enc)
    target_stacks = _stack_chain(s, count, enc)
    gram_targets = gram_stack(target_stacks[0])
    deep_targets = [ad.gram(st.stages[-1]) for st in target_stacks[1:]]
    return _sum(_style_terms(stacks, gram_targets, deep_targets))


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


class LevelTargets(NamedTuple):
    """Encoder targets of one (content, style) pair for one level's objective."""

    content_stack: FeatureStack           # content at this level
    content_deep: list[Tensor]            # deepest content features, this level and coarser
    style_grams: tuple[Tensor, ...]       # style Gram stack at this level
    style_deep_grams: list[Tensor]        # deepest style Gram at each coarser level


def level_targets(c_feats, s_feats) -> LevelTargets:
    """Targets from per-level (stack, grams) of the content and of the style,
    this level first, then each coarser one."""
    return LevelTargets(content_stack=c_feats[0][0],
                        content_deep=[stack.stages[-1] for stack, _ in c_feats],
                        style_grams=s_feats[0][1],
                        style_deep_grams=[grams[-1] for _, grams in s_feats[1:]])


def image_targets(content, style, count, enc) -> LevelTargets:
    """Targets of a (content, style) pair over `count` levels, pooling the images."""
    c_feats, s_feats = ([(st, gram_stack(st)) for st in _stack_chain(img, count, enc)]
                        for img in (content, style))
    return level_targets(c_feats, s_feats)


def level_terms(stylized, targets: LevelTargets, enc):
    """(l_pc, l_ps) of a stylized (3, H, W) image: the content and style terms
    of this level and of every coarser one that `targets` covers."""
    stacks = _stack_chain(stylized, len(targets.content_deep), enc)
    return (_sum(_content_terms(stacks, targets.content_deep)),
            _sum(_style_terms(stacks, targets.style_grams, targets.style_deep_grams)))


def level_objective(stylized, targets: LevelTargets, level, enc, weights: LossWeights,
                    zero_residual=None):
    """Weighted objective of a stylized (3, H, W) tensor: (total, l_pc, l_ps, l_tv);
    `zero_residual` adds the zero-pair term."""
    l_pc, l_ps = level_terms(stylized, targets, enc)
    l_tv = tv_loss(stylized)
    zero_sq = None
    if zero_residual is not None:
        zero_sq = ad.mean_all(ad.mul(zero_residual, zero_residual))
    total = combine_losses(l_pc, l_ps, l_tv, level, weights, zero_sq=zero_sq)
    return total, l_pc, l_ps, l_tv


def _zero_bundle(stack: FeatureStack):
    """Errors of an image against itself are exactly zero."""
    c4 = stack.stages[-1]
    content = Tensor(np.zeros_like(c4.data))
    style = tuple(Tensor(np.zeros((f.shape[0], f.shape[0]), dtype=f.dtype))
                  for f in stack.stages)
    return ErrorBundle(content=content, style=style)


def sample_objective(icing_t, targets: LevelTargets, params: LevelParams, enc, level,
                     weights: LossWeights):
    """The training objective of one sample: the level's network refines the
    estimate `icing_t`, its losses are taken on the recovering clamp, and the
    zero-pair term asks for a zero residual on the content's own features."""
    f_in = encode(icing_t, enc)
    bundle = errors_between(targets.content_deep[0], targets.style_grams, f_in)
    residual, _ = run_decoder(bundle, f_in, params)
    stylized = recovering_clamp01(ad.add(icing_t, residual))
    zero_res, _ = run_decoder(_zero_bundle(targets.content_stack), targets.content_stack, params)
    return level_objective(stylized, targets, level, enc, weights, zero_residual=zero_res)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    (untracked) of a corpus. An image is keyed by (role, idx): role "c" is
    `contents[idx]`, role "s" is `styles[idx]`.

    The two samples of a concurrent batch share one cache without a lock:
    when both miss the same entry, both compute it, bit for bit the same,
    and the later store is kept; neither waits for the other's encode.
    """

    def __init__(self, enc: Encoder, depth: int, contents, styles):
        self.enc = enc
        self.depth = depth
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
        """(stack Tensors, gram Tensors) of the level-`level` version of the image."""
        key = (role, idx, level)
        if key not in self._feats:
            stack = encode(self.level_images(role, idx)[level - 1], self.enc)
            self._feats[key] = (stack, gram_stack(stack))
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
    cache = TargetCache(enc, depth, contents, styles)
    samples = _sample_keys(np.random.default_rng([cfg.seed, 100 + level]),
                           len(contents), len(styles))
    concurrent = cfg.batch > 1 and cfg.image_size >> (level - 1) >= CONCURRENT_MIN_SIDE
    blas = _blas_threads() if concurrent else None
    log_lines = []

    def run(level_params, keys):
        return _train_sample(cfg, level, enc, frozen, level_params, cache, weights, *keys)

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
                if not np.all(np.isfinite(t.grad)):
                    raise TrainingDiverged(f"level {level} step {step}: non-finite gradient "
                                           f"in {name}")
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

    # frozen coarse-to-fine prefix supplies this level's starting estimate,
    # refined toward the cached targets
    icing = start_estimate(cache.level_images(*c_key)[depth - 1])
    for j in range(depth, level, -1):
        (c_stack, _), (_, s_grams) = c_feats[j - level], s_feats[j - level]
        icing = upsample(refine_level(icing, c_stack, s_grams, frozen[j], enc))

    targets = level_targets(c_feats, s_feats)
    total, l_pc, l_ps, l_tv = sample_objective(_as_image_tensor(icing), targets, params, enc,
                                               level, weights)
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
    """Write (or verify) the config snapshot and encoder checkpoint."""
    os.makedirs(model_dir, exist_ok=True)
    snap_path = os.path.join(model_dir, CONFIG_SNAPSHOT)
    snapshot = format_config(cfg)
    if os.path.exists(snap_path):
        if read_text(snap_path) != snapshot:
            raise ConfigError(f"{snap_path} exists with a different configuration")
    else:
        checkpoint.write_atomic(snap_path, snapshot.encode("utf-8"))
    enc_path = os.path.join(model_dir, ENCODER_FILE)
    state = {k: t.data for k, t in enc.named_tensors().items()}
    if os.path.exists(enc_path):
        existing = checkpoint.read(enc_path)
        same = set(existing) == set(state) and all(
            np.array_equal(existing[k], state[k]) for k in state)
        if not same:
            raise ConfigError(f"{enc_path} does not match the configured encoder")
    else:
        checkpoint.write(enc_path, state)


def make_model_encoder(cfg: RunConfig) -> Encoder:
    return make_encoder([cfg.seed, 17], channels=cfg.channels)


def _read_params(params, path):
    """Fill `params` from the checkpoint at `path`.

    `load_state` checks that the file holds exactly the names and shapes of
    the layout `config.txt` declares; the values must also be finite. Any
    fault raises `CheckpointError` naming `path`.
    """
    try:
        ad.load_state(params, checkpoint.read(path))
    except (CheckpointError, ContractError) as exc:
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
