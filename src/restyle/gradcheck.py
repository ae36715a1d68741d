"""Finite-difference verification of analytic gradients.

Each case builds float64 leaf tensors plus a forward closure producing a
scalar; the analytic gradient from one backward pass is compared against
central differences taken by mutating the leaf data in place. Large leaves
are spot-checked on a deterministic random subset of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

EPS = 1e-3
TOL = 1e-4


def projection(rng, shape):
    """Fixed random projection tensor used to scalarize array-valued ops."""
    return ad.Tensor(rng.standard_normal(shape), dtype=np.float64)


def scalarize(out, proj):
    return ad.sum_all(ad.mul(out, proj))


def rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def check_gradients(build, seed, eps=EPS, max_coords=None):
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
        flat = leaf.data.reshape(-1)
        n = flat.size
        if max_coords is None or n <= max_coords:
            coords = range(n)
        else:
            coords = coord_rng.choice(n, size=max_coords, replace=False)
        for i in coords:
            numeric = _central(forward, flat, i, eps)
            err = float(rel_error(ana.reshape(-1)[i], numeric))
            # a relu kink inside the eps-interval invalidates the FD
            # estimate; the evidence is eps-instability of the numeric value
            # itself, in which case a refined estimate decides instead
            e = eps
            while err > 1e-6 and e > eps / 5000:
                refined = _central(forward, flat, i, e / 16)
                if float(rel_error(numeric, refined)) <= 1e-6:
                    break  # stable estimate: the disagreement stands
                numeric = refined
                e /= 16
                err = float(rel_error(ana.reshape(-1)[i], numeric))
            if err > worst:
                worst = err
    return worst


def _central(forward, flat, i, eps):
    orig = flat[i]
    flat[i] = orig + eps
    up = forward().item()
    flat[i] = orig - eps
    down = forward().item()
    flat[i] = orig
    return (up - down) / (2 * eps)


def run_case(name, build, seeds, eps=EPS, tol=TOL, max_coords=None):
    """Check one op over several seeded instances; returns (worst_err, passed)."""
    worst = 0.0
    for seed in seeds:
        worst = max(worst, check_gradients(build, seed, eps=eps, max_coords=max_coords))
    return worst, worst < tol


# ---------------------------------------------------------------------------
# standard suite covering every differentiable operation

@dataclass
class GradCase:
    name: str
    build: object
    seeds: tuple = (0, 1, 2, 3, 4)
    max_coords: int | None = None


def _leaf(rng, shape, scale=1.0):
    return ad.Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def _build_conv2d(rng):
    from .autodiff import ConvParams
    x = _leaf(rng, (3, 6, 6))
    w = _leaf(rng, (4, 3, 3, 3), scale=1 / np.sqrt(27))
    b = _leaf(rng, (4,), scale=0.1)
    proj = projection(rng, (4, 6, 6))

    def forward():
        return scalarize(ad.conv2d(x, ConvParams(weight=w, bias=b, padding=1)), proj)

    return [x, w, b], forward


def _unary_builder(op, shape):
    def build(rng):
        x = _leaf(rng, shape)
        out_shape = op(ad.Tensor(np.zeros(shape), dtype=np.float64)).shape
        proj = projection(rng, out_shape)

        def forward():
            return scalarize(op(x), proj)

        return [x], forward
    return build


def _build_matmul(rng):
    a = _leaf(rng, (4, 3))
    b = _leaf(rng, (3, 5))
    proj = projection(rng, (4, 5))

    def forward():
        return scalarize(ad.matmul(a, b), proj)

    return [a, b], forward


def _build_fuse(rng):
    from .encoder import fuse
    content = _leaf(rng, (3, 2, 3))
    w = _leaf(rng, (3, 3), scale=0.5)
    style = _leaf(rng, (3, 3), scale=0.5)
    proj = projection(rng, (3, 2, 3))

    def forward():
        return scalarize(fuse(content, w, style), proj)

    return [content, w, style], forward


def _build_nonlocal(rng):
    from .autodiff import ConvParams
    from .transition import NonLocalParams, nonlocal_block
    c = 3
    wh, wu, wg = (_leaf(rng, (c, c, 1, 1)) for _ in range(3))
    err = _leaf(rng, (c, 2, 3))
    f_in = _leaf(rng, (c, 2, 3))
    proj = projection(rng, (c, 2, 3))

    def forward():
        p = NonLocalParams(psi_h=ConvParams(weight=wh), psi_u=ConvParams(weight=wu),
                           psi_g=ConvParams(weight=wg))
        return scalarize(nonlocal_block(err, f_in, p), proj)

    return [wh, wu, wg, err, f_in], forward


def _build_propagation(rng):
    from .autodiff import ConvParams
    from .transition import PropagationBlockParams, propagation_block
    c_i, c_prev = 4, 3

    def conv_leaf(c_in, c_out, k):
        return _leaf(rng, (c_out, c_in, k, k), scale=1 / np.sqrt(c_in * k * k))

    wt = conv_leaf(c_i, c_prev, 1)
    psi = _leaf(rng, (c_prev, c_prev), scale=0.5)
    wu = conv_leaf(c_prev, c_prev, 3)
    wv = conv_leaf(c_i, c_prev, 1)
    ww = conv_leaf(3 * c_prev, c_prev, 3)
    err = _leaf(rng, (c_i, 2, 2))
    d = _leaf(rng, (c_i, 2, 2))
    f_in = _leaf(rng, (c_prev, 4, 4))
    sd = _leaf(rng, (c_prev, c_prev), scale=0.5)
    proj_e = projection(rng, (c_prev, 4, 4))
    proj_d = projection(rng, (c_prev, 4, 4))

    def forward():
        p = PropagationBlockParams(
            phi_t=ConvParams(weight=wt), psi=psi,
            phi_u=ConvParams(weight=wu, padding=1),
            phi_v=ConvParams(weight=wv),
            phi_w=ConvParams(weight=ww, padding=1))
        e, dd = propagation_block(err, d, f_in, sd, p)
        return ad.add(scalarize(e, proj_e), scalarize(dd, proj_d))

    return [wt, psi, wu, wv, ww, err, d, f_in, sd], forward


_SMALL_CHANNELS = (4, 6, 8, 10)


def _shadow_encoder():
    from .encoder import make_encoder
    return make_encoder(seed=3, channels=_SMALL_CHANNELS).astype(np.float64)


def _build_tv(rng):
    from .trainer import tv_loss
    x = ad.Tensor(rng.random((2, 4, 5)), requires_grad=True, dtype=np.float64)
    return [x], lambda: tv_loss(x)


def _loss_builder(which):
    def build(rng):
        from .trainer import content_loss, style_loss
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
    from .trainer import LossWeights, image_targets, sample_objective
    from .transition import make_level_params
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
    from .transition import etnet_forward, make_level_params
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
        GradCase("conv2d", _build_conv2d),
        GradCase("avgpool2x", _unary_builder(ad.avgpool2x, (2, 4, 6))),
        GradCase("upsample_nearest2x", _unary_builder(ad.upsample_nearest2x, (2, 3, 3))),
        GradCase("matmul", _build_matmul),
        GradCase("softmax_rows", _unary_builder(ad.softmax_rows, (4, 6))),
        GradCase("gram", _unary_builder(ad.gram, (3, 4, 4))),
        GradCase("fuse", _build_fuse),
        GradCase("nonlocal_block", _build_nonlocal),
        GradCase("propagation_block", _build_propagation),
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
    for case in standard_suite():
        if names and case.name not in names:
            continue
        worst, ok = run_case(case.name, case.build, case.seeds, max_coords=case.max_coords)
        results.append((case.name, worst, ok))
        if report:
            report(f"{'PASS' if ok else 'FAIL'} {case.name}: max relative error {worst:.3e}")
    return results
