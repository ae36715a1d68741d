"""Finite-difference verification of analytic gradients.

Each case builds float64 leaf tensors plus a forward closure producing a
scalar; the analytic gradient from one backward pass is compared against
central differences, each side taken on a perturbed copy of the leaf's data
that is then replaced by the original array. Large leaves are spot-checked
on a deterministic random subset of coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConvParams
from .encoder import fuse, make_encoder
from .trainer import LossWeights, content_loss, image_targets, sample_objective, style_loss, \
    tv_loss
from .transition import NonLocalParams, PropagationBlockParams, etnet_forward, \
    make_level_params, nonlocal_block, propagation_block

EPS = 1e-3
TOL = 1e-4


def projection(rng, shape):
    """Fixed random projection tensor used to scalarize array-valued ops."""
    return ad.Tensor(rng.standard_normal(shape), dtype=np.float64)


def scalarize(out, proj):
    return ad.sum_all(ad.mul(out, proj))


def _leaf(rng, shape, scale):
    return ad.Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def _outputs(out):
    return out if isinstance(out, tuple) else (out,)


def case(fn, *specs):
    """`check_gradients` builder of `fn` over standard-normal float64 leaves.

    Each spec is a `(shape, scale)` pair; the leaves are drawn in `specs`
    order and passed to `fn` in that order. One projection per output of
    `fn` is drawn next, and the scalar is the sum of the projected outputs.
    """
    def build(rng):
        leaves = [_leaf(rng, shape, scale) for shape, scale in specs]
        projs = [projection(rng, out.shape) for out in _outputs(fn(*leaves))]

        def forward():
            terms = [scalarize(out, p) for out, p in zip(_outputs(fn(*leaves)), projs)]
            return functools.reduce(ad.add, terms)

        return leaves, forward
    return build


def rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def check_gradients(build, seed, max_coords=None):
    """Return the max relative error between analytic and numeric gradients.

    `build(rng)` returns (leaves, forward) where every leaf is a float64
    Tensor with requires_grad=True and forward() rebuilds the graph from the
    current leaf data, returning a scalar Tensor.
    """
    rng = np.random.default_rng(seed)
    leaves, forward = build(rng)
    for leaf in leaves:
        assert leaf.dtype == np.float64 and leaf.requires_grad
        leaf.zero_grad()
    loss = forward()
    ad.backward(loss)
    analytic = [np.array(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
                for leaf in leaves]

    worst = 0.0
    coord_rng = np.random.default_rng(seed + 0x5EED)
    for leaf, ana in zip(leaves, analytic):
        n = leaf.data.size
        if max_coords is None or n <= max_coords:
            coords = range(n)
        else:
            coords = coord_rng.choice(n, size=max_coords, replace=False)
        for i in coords:
            numeric = _central(forward, leaf, i, EPS)
            err = float(rel_error(ana.reshape(-1)[i], numeric))
            # a relu kink inside the eps-interval invalidates the FD
            # estimate; the evidence is eps-instability of the numeric value
            # itself, in which case a refined estimate decides instead
            e = EPS
            while err > 1e-6 and e > EPS / 5000:
                refined = _central(forward, leaf, i, e / 16)
                if float(rel_error(numeric, refined)) <= 1e-6:
                    break  # stable estimate: the disagreement stands
                numeric = refined
                e /= 16
                err = float(rel_error(ana.reshape(-1)[i], numeric))
            if err > worst:
                worst = err
    return worst


def _central(forward, leaf, i, eps):
    """Central difference of forward() in flat coordinate i of `leaf`, each side on
    a moved copy assigned to `leaf.data` (a used conv weight array is read-only)."""
    orig = leaf.data
    sides = []
    try:
        for step in (eps, -eps):
            leaf.data = orig.copy()
            leaf.data.reshape(-1)[i] += step
            sides.append(forward().item())
    finally:
        leaf.data = orig
    return (sides[0] - sides[1]) / (2 * eps)


# ---------------------------------------------------------------------------
# standard suite covering every differentiable operation

SEEDS = (0, 1, 2, 3, 4)


@dataclass
class GradCase:
    name: str
    build: object
    max_coords: int | None = None


def _conv2d(x, w):
    return ad.conv2d(x, ConvParams(weight=w, padding=1))


def _nonlocal(wh, wu, wg, err, f_in):
    p = NonLocalParams(psi_h=ConvParams(weight=wh), psi_u=ConvParams(weight=wu),
                       psi_g=ConvParams(weight=wg))
    return nonlocal_block(err, f_in, p)


def _propagation(wt, psi, wu, wv, ww, err, d, f_in, sd):
    p = PropagationBlockParams(
        phi_t=ConvParams(weight=wt), psi=psi,
        phi_u=ConvParams(weight=wu, padding=1),
        phi_v=ConvParams(weight=wv),
        phi_w=ConvParams(weight=ww, padding=1))
    return propagation_block(err, d, f_in, sd, p)


def _conv_spec(c_in, c_out, k):
    return (c_out, c_in, k, k), 1 / np.sqrt(c_in * k * k)


_SMALL_CHANNELS = (4, 6, 8, 10)


def _shadow_encoder():
    return make_encoder(seed=3, channels=_SMALL_CHANNELS).astype(np.float64)


def _build_tv(rng):
    x = ad.Tensor(rng.random((2, 4, 5)), requires_grad=True, dtype=np.float64)
    return [x], lambda: tv_loss(x)


def _build_conv2d_list(rng):
    """conv2d over a two-input list whose first input is frozen: the backward
    pass computes dx for the second input's channels only."""
    frozen = ad.Tensor(rng.standard_normal((3, 5, 4)), dtype=np.float64)
    x = _leaf(rng, (2, 5, 4), 1.0)
    w = _leaf(rng, *_conv_spec(5, 4, 3))
    proj = projection(rng, (4, 5, 4))
    p = ConvParams(weight=w, padding=1)
    return [x, w], lambda: scalarize(ad.conv2d([frozen, x], p), proj)


def _loss_builder(which):
    def build(rng):
        enc = _shadow_encoder()
        cs = ad.Tensor(rng.random((3, 16, 16)), requires_grad=True, dtype=np.float64)
        ref = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)

        def forward():
            fn = content_loss if which == "content" else style_loss
            return fn(cs, ref, level=1, depth=2, enc=enc)

        return [cs], forward
    return build


def _build_training_objective(rng):
    """`sample_objective` in every level parameter. The estimate is drawn from
    [0.3, 0.7], where the small initial residual keeps the recovering clamp the
    identity; outside [0, 1] its gradient is by design not a derivative."""
    enc = _shadow_encoder()
    params = make_level_params(seed=12, channels=_SMALL_CHANNELS).astype(np.float64)
    weights = LossWeights(style_per_level=(1.0, 5.0))
    c = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)
    s = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)
    icing = ad.Tensor(rng.uniform(0.3, 0.7, (3, 16, 16)), dtype=np.float64)
    targets = image_targets(c, s, count=2, enc=enc)

    def forward():
        return sample_objective(icing, targets, params, enc, level=1, weights=weights)[0]

    return params.tensors(), forward


def _build_etnet(rng):
    enc = _shadow_encoder()
    params = make_level_params(seed=12, channels=_SMALL_CHANNELS).astype(np.float64)
    leaves = params.tensors()
    for t in leaves:
        t.requires_grad = True
    c = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)
    s = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)
    cur = ad.Tensor(rng.random((3, 16, 16)), dtype=np.float64)

    def forward():
        out = etnet_forward(c, s, cur, params, enc)
        return ad.mean_all(ad.mul(out, out))

    return leaves, forward


def standard_suite():
    """Every differentiable operation, checked over >= 5 seeded instances."""
    return [
        GradCase("conv2d", case(_conv2d, ((3, 6, 6), 1.0), _conv_spec(3, 4, 3))),
        GradCase("conv2d_list", _build_conv2d_list),
        GradCase("avgpool2x", case(ad.avgpool2x, ((2, 4, 6), 1.0))),
        GradCase("upsample_nearest2x", case(ad.upsample_nearest2x, ((2, 3, 3), 1.0))),
        GradCase("matmul", case(ad.matmul, ((4, 3), 1.0), ((3, 5), 1.0))),
        GradCase("softmax_rows", case(ad.softmax_rows, ((4, 6), 1.0))),
        GradCase("take", case(functools.partial(ad.take, key=(slice(1, 3), slice(0, 5, 2))),
                              ((4, 5), 1.0))),
        GradCase("gram", case(ad.gram, ((3, 4, 4), 1.0))),
        GradCase("fuse", case(fuse, ((3, 2, 3), 1.0), ((3, 3), 0.5), ((3, 3), 0.5))),
        GradCase("nonlocal_block", case(_nonlocal, *[((3, 3, 1, 1), 1.0)] * 3,
                                        ((3, 2, 3), 1.0), ((3, 2, 3), 1.0))),
        GradCase("propagation_block", case(
            _propagation, _conv_spec(4, 3, 1), ((3, 3), 0.5), _conv_spec(3, 3, 3),
            _conv_spec(4, 3, 1), _conv_spec(9, 3, 3), ((4, 2, 2), 1.0), ((4, 2, 2), 1.0),
            ((3, 4, 4), 1.0), ((3, 3), 0.5))),
        GradCase("content_loss", _loss_builder("content"), max_coords=48),
        GradCase("style_loss", _loss_builder("style"), max_coords=48),
        GradCase("tv_loss", _build_tv),
        GradCase("training_objective", _build_training_objective, max_coords=4),
        GradCase("etnet_forward", _build_etnet, max_coords=4),
    ]


def run_suite(names=None, report=None):
    """Run (a filtered subset of) the standard suite.

    Returns a list of (name, worst_error, passed); `report` is called with a
    line of text per case as results arrive.
    """
    results = []
    for gc in standard_suite():
        if names and gc.name not in names:
            continue
        worst = max(check_gradients(gc.build, seed, max_coords=gc.max_coords) for seed in SEEDS)
        ok = worst < TOL
        results.append((gc.name, worst, ok))
        if report:
            report(f"{'PASS' if ok else 'FAIL'} {gc.name}: max relative error {worst:.3e}")
    return results
