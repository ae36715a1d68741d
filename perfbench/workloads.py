"""The benchmark's workloads: set-up, one timed unit, and output checks.

Every workload runs closed loop with one client: a unit starts only after the
previous one has finished. A training run is one `trainer.train_level` call
whose step count is sized to `--seconds` (an item is one optimizer step); a
stylize unit is one in-process `restyle stylize` call through `cli.main` (an
item is one call), repeated until `--seconds` is used up.

`plan(seconds, trace)` gives a workload's units as (traced, items) pairs, or
None when units repeat until the time is up. `run_unit` returns the start of
its first item, the item latencies and an output record for `check`.
"""

from __future__ import annotations

import hashlib
import os
import traceback

import numpy as np

from restyle import autodiff as ad
from restyle import cli, corpus, images, stylizer, trainer
from restyle.autodiff import Tensor
from restyle.config import RunConfig
from restyle.encoder import ErrorBundle, encode
from restyle.transition import etnet_forward, run_decoder

from hooks import Patcher

# The acceptance training configuration. Its seed fixes the model (encoder,
# initial weights, sample order); the benchmark seed generates the data: the
# training corpus and the stylize test pairs. Per-call cost depends on the
# weights (seeds 2 and 3 differ by 5-15% at 384 px), so varying the weights
# with the benchmark seed would make run-to-run spread a property of the seed.
ACCEPT = dict(seed=7, image_size=96, channels=(16, 32, 64, 128), levels=3, lr=1e-3, batch=2,
              lambda_ps=(60.0, 300.0, 480.0), content_count=64, style_count=16)

# Step-0 losses of float32 training against a float64 evaluation of the same
# step: |f32 - f64| <= LOSS_RTOL * |f64| for each logged column. float32
# carries about 7 digits; 1e-3 leaves room for any summation order.
LOSS_RTOL = 1e-3
# A stylized PPM against the float64-shadowed model, in 8-bit levels. float32
# rounding grows from level to level: a finer level's residual reacts to its
# input image with a gain of about ten, so 0.01 levels after level 2 became
# 0.13 levels after level 1 on one test pair. And where attention or a clamp
# sits near an edge at a coarse level, a pixel can flip by up to 255 levels,
# over a block of full-size pixels. So the check bounds the share of values
# off by more than a few levels, and the mean only loosely. Over 110 test
# pairs (56 seeds) the worst float32 output had 2.4e-4 of values off by more
# than 4 levels and a mean of 0.133 levels. Rounding every conv2d input to
# float16 put 3.5e-3 of values off by more than 4 levels, with a mean of 0.39.
STYLIZE_LEVELS = 4
STYLIZE_OUTLIER_FRAC = 1e-3
STYLIZE_MEAN_LEVELS = 1.0


def _config(steps=1, **extra):
    return RunConfig(steps=steps, **ACCEPT, **extra).validate()


def _corpus(cfg, seed):
    return corpus.make_corpus(corpus.CorpusSpec(seed=seed, size=cfg.image_size,
                                                content_count=cfg.content_count,
                                                style_count=cfg.style_count))


def _finite(values):
    return all(np.all(np.isfinite(v)) for v in values)


class TrainWorkload:
    """Optimizer steps of `train_level` at one pyramid level.

    One `train_level` call per run, so the level is calibrated once and the
    target cache warms over the run as it does in real training. Its step
    count is `--seconds` over a nominal step time on a 2-vCPU VM, fixed so
    that runs of one seed train the same parameters. A traced run makes two
    calls of half the steps each: untraced, then traced.

    The frozen coarser levels are calibrated initial weights, which cost the
    same per step as trained ones.
    """

    def __init__(self, level, nominal_step_s):
        self.level = level
        self.nominal_step_s = nominal_step_s

    def plan(self, seconds, trace):
        steps = max(1, round(seconds / self.nominal_step_s))
        if trace:
            half = max(1, steps // 2)
            return [(False, half), (True, half)]
        return [(False, steps)]

    def setup(self, seed, workdir):
        cfg = _config()
        contents, styles = _corpus(cfg, seed)
        enc = trainer.make_model_encoder(cfg)
        frozen = {j: trainer.init_level_params(cfg, j, enc, contents, styles)
                  for j in range(self.level + 1, cfg.levels + 1)}
        return dict(cfg=cfg, contents=contents, styles=styles, enc=enc, frozen=frozen)

    def run_unit(self, state, clock, steps):
        """One train_level call of `steps` steps: (first item start, latencies, output).

        The first item starts when the level's initial parameters are ready,
        so calibration is set-up; item i ends when Adam.step returns. Items
        that did not complete are None.
        """
        marks = []
        patcher = Patcher()

        def mark_after(fn):
            def marked(*args, **kwargs):
                result = fn(*args, **kwargs)
                marks.append(clock())
                return result
            return marked

        patcher.wrap("restyle.trainer:init_level_params", mark_after)
        patcher.wrap("restyle.trainer:Adam.step", mark_after)
        try:
            result = trainer.train_level(_config(steps=steps), self.level, state["enc"],
                                         dict(state["frozen"]), contents=state["contents"],
                                         styles=state["styles"])
        except Exception:  # noqa: BLE001 - a failed unit is counted, the run goes on
            result = traceback.format_exc(limit=3)
        finally:
            patcher.undo()
        start = marks[0] if marks else None
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        latencies += [None] * (steps - len(latencies))
        if isinstance(result, str):
            return start, latencies, {"error": result}
        named = result.params.named_tensors()
        digest = hashlib.sha256()
        for key, t in named.items():
            digest.update(key.encode("utf-8"))
            digest.update(np.ascontiguousarray(t.data).tobytes())
        rows = [[float(v) for v in line.split("\t")[1:]] for line in result.log_lines]
        return start, latencies, {
            "sha256": digest.hexdigest(), "steps": steps, "rows": len(rows),
            "step0": rows[0] if rows else None,
            "finite": _finite(rows) and _finite(t.data for t in named.values())}

    def reference(self, state):
        """Float64 evaluation of the step-0 losses (l_pc, l_ps, l_tv, total).

        Step 0 draws its batch from train_level's sampling stream,
        default_rng([seed, 100 + level]): one content index, then one style
        index, per sample; the first identity pair comes at sample
        IDENTITY_PAIR_PERIOD - 1, after step 0 at this batch size.
        """
        cfg, level, depth = state["cfg"], self.level, state["cfg"].levels
        if cfg.batch >= trainer.IDENTITY_PAIR_PERIOD:
            raise ValueError("step 0 would contain an identity pair")
        contents, styles = state["contents"], state["styles"]
        f64 = np.float64
        enc = state["enc"].astype(f64)
        params = trainer.init_level_params(cfg, level, state["enc"], contents, styles).astype(f64)
        frozen = {j: p.astype(f64) for j, p in state["frozen"].items()}
        weights = trainer.LossWeights.from_config(cfg)
        rng = np.random.default_rng([cfg.seed, 100 + level])
        rows = []
        for _ in range(cfg.batch):
            c_chain = [contents[int(rng.integers(len(contents)))]]
            s_chain = [styles[int(rng.integers(len(styles)))]]
            for _ in range(depth - 1):
                c_chain.append(images.downsample(c_chain[-1]))
                s_chain.append(images.downsample(s_chain[-1]))
            icing = np.zeros_like(c_chain[-1])
            for j in range(depth, level, -1):
                icing = images.upsample(stylizer.refine_level(icing, c_chain[j - 1],
                                                              s_chain[j - 1], frozen[j], enc))
            c_k, s_k = c_chain[level - 1], s_chain[level - 1]
            icing_t = Tensor(images.to_chw(icing), dtype=f64)
            stylized = ad.clamp01(ad.add(icing_t, etnet_forward(c_k, s_k, icing_t, params, enc)))
            l_pc = trainer.content_loss(stylized, c_k, level, depth, enc)
            l_ps = trainer.style_loss(stylized, s_k, level, depth, enc)
            l_tv = trainer.tv_loss(stylized)
            # zero-pair term: the decoder on a zero error bundle and the content's features
            c_stack = encode(c_k, enc)
            zero = ErrorBundle(content=Tensor(np.zeros_like(c_stack.stages[-1].data)),
                               style=tuple(Tensor(np.zeros((f.shape[0],) * 2, dtype=f64))
                                           for f in c_stack.stages))
            zero_res, _ = run_decoder(zero, c_stack, params)
            zero_sq = ad.mean_all(ad.mul(zero_res, zero_res))
            total = trainer.combine_losses(l_pc, l_ps, l_tv, level, weights, zero_sq=zero_sq)
            rows.append([l_pc.item(), l_ps.item(), l_tv.item(), total.item()])
        return np.mean(rows, axis=0).tolist()

    def check(self, output, reference):
        """Failure reason for one unit's output, or None if it passes."""
        if "error" in output:
            return output["error"]
        if output["rows"] != output["steps"]:
            return f"{output['rows']} log lines for {output['steps']} steps"
        if not output["finite"]:
            return "non-finite logged loss or final parameter"
        got, want = np.array(output["step0"]), np.array(reference)
        if np.any(np.abs(got - want) > LOSS_RTOL * np.abs(want)):
            return f"step-0 losses {got.tolist()} vs float64 {want.tolist()}"
        return None

    @staticmethod
    def digests(outputs):
        return sorted({o["sha256"] for o in outputs if "sha256" in o})


class StylizeWorkload:
    """`restyle stylize` on 384 px test pairs with a model of initial weights.

    Each call writes its own output file in the work directory, so the
    harness holds no output in memory while the calls run.
    """

    def __init__(self, size, pairs):
        self.size = size
        self.pairs = pairs

    @staticmethod
    def plan(seconds, trace):
        return None

    def setup(self, seed, workdir):
        model_dir = os.path.join(workdir, "model")
        cfg = _config(model_dir=model_dir)
        # the model is calibrated on the acceptance corpus, so it is the same for every seed
        contents, styles = _corpus(cfg, cfg.seed)
        enc = trainer.make_model_encoder(cfg)
        trainer.init_model_dir(model_dir, cfg, enc)
        for level in range(1, cfg.levels + 1):
            params = trainer.init_level_params(cfg, level, enc, contents, styles)
            trainer.save_level_checkpoint(os.path.join(model_dir, trainer.level_file(level)),
                                          params)
        spec = corpus.CorpusSpec(seed=seed, size=self.size, content_count=1, style_count=1)
        paths = []
        for i, (content, style) in enumerate(corpus.make_test_pairs(spec, self.pairs)):
            pair = {}
            for role, img in (("content", content), ("style", style)):
                pair[role] = os.path.join(workdir, f"{role}{i}.ppm")
                with open(pair[role], "wb") as fh:
                    fh.write(images.save_ppm(img))
            paths.append(pair)
        return dict(model_dir=model_dir, paths=paths, workdir=workdir, calls=0)

    def run_unit(self, state, clock, items=1):
        pair = state["calls"] % self.pairs
        out = os.path.join(state["workdir"], f"out{state['calls']}.ppm")
        state["calls"] += 1
        paths = state["paths"][pair]
        argv = ["stylize", "--content", paths["content"], "--style", paths["style"],
                "--model", state["model_dir"], "--out", out]
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
            code = traceback.format_exc(limit=3)
        elapsed = clock() - t0
        return t0, [elapsed], {"pair": pair, "code": code, "path": out}

    def reference(self, state):
        """Each pair stylized by the same model shadowed in float64, as 8-bit levels."""
        model, _ = trainer.load_model_dir(state["model_dir"])
        f64 = stylizer.PyramidModel(encoder=model.encoder.astype(np.float64),
                                    levels=[p.astype(np.float64) for p in model.levels])
        refs = []
        for paths in state["paths"]:
            imgs = []
            for role in ("content", "style"):
                with open(paths[role], "rb") as fh:
                    imgs.append(images.load_ppm(fh.read()))
            final = stylizer.stylize(imgs[0], imgs[1], f64).final.astype(np.float64)
            refs.append(np.rint(np.clip(final, 0.0, 1.0) * 255.0))
        return refs

    def check(self, output, reference):
        if isinstance(output["code"], str):
            return output["code"]  # the traceback of an exception that escaped cli.main
        if output["code"] != 0:
            return f"exit code {output['code']}"
        if not os.path.exists(output["path"]):
            return "no output file"
        try:
            with open(output["path"], "rb") as fh:
                img = images.load_ppm(fh.read())
        except ValueError as exc:
            return f"invalid PPM: {exc}"
        if img.shape != (self.size, self.size, 3):
            return f"output shape {img.shape}"
        diff = np.abs(np.rint(img.astype(np.float64) * 255.0) - reference[output["pair"]])
        outliers = float(np.mean(diff > STYLIZE_LEVELS))
        if outliers > STYLIZE_OUTLIER_FRAC or diff.mean() > STYLIZE_MEAN_LEVELS:
            return (f"differs from float64: {outliers:.2e} of values by more than "
                    f"{STYLIZE_LEVELS} levels, mean {diff.mean():.4f} levels")
        return None

    @staticmethod
    def digests(outputs):
        found = set()
        for o in outputs:
            if os.path.exists(o["path"]):
                with open(o["path"], "rb") as fh:
                    found.add(hashlib.sha256(fh.read()).hexdigest())
        return sorted(found)


WORKLOADS = {
    "train_l1_96": TrainWorkload(level=1, nominal_step_s=0.5),
    "train_l3_24": TrainWorkload(level=3, nominal_step_s=0.055),
    "stylize_384": StylizeWorkload(size=384, pairs=2),
}

# Spans the traced run must contain, per item: (low, high) bounds on the
# count, None for no upper bound. A missing wrap shows up as a zero count.
_COMMON_SPANS = {
    "encoder.encode": (1, None), "encoder.errors_between": (1, None),
    "transition.run_decoder": (1, None), "transition.nonlocal_block": (1, None),
    "transition.propagation_block": (1, None), "images.downsample": (1e-9, None),
    "autodiff.conv2d.fwd": (1, None), "autodiff.matmul.fwd": (1, None),
    "autodiff.softmax_rows.fwd": (1, None), "autodiff.gram.fwd": (1, None),
    "autodiff.avgpool2x.fwd": (1, None), "autodiff.upsample_nearest2x.fwd": (1, None),
}
_TRAIN_SPANS = {
    **_COMMON_SPANS,
    "trainer.train_level": (1e-9, None), "trainer.init_level_params": (1e-9, None),
    "trainer.Adam.step": (1, 1), "autodiff.backward": (ACCEPT["batch"], ACCEPT["batch"]),
    "trainer.tv_loss": (ACCEPT["batch"], None), "trainer.TargetCache.features": (1e-9, None),
    "autodiff.conv2d.bwd": (1, None), "autodiff.matmul.bwd": (1, None),
    "autodiff.softmax_rows.bwd": (1, None), "autodiff.gram.bwd": (1, None),
    "autodiff.avgpool2x.bwd": (1, None), "autodiff.upsample_nearest2x.bwd": (1, None),
}
EXPECTED_SPANS = {
    # the frozen prefix refines at levels 3 and 2: at most 2 calls per sample
    "train_l1_96": {**_TRAIN_SPANS, "images.upsample": (1e-9, None),
                    "stylizer.refine_level": (1e-9, 2 * ACCEPT["batch"])},
    "train_l3_24": {**_TRAIN_SPANS, "stylizer.refine_level": (0, 0)},
    "stylize_384": {**_COMMON_SPANS, "cli.main": (1, 1), "stylizer.stylize": (1, 1),
                    "stylizer.refine_level": (3, 3), "trainer.load_model_dir": (1, 1),
                    "checkpoint.read": (4, 4), "images.load_ppm": (2, 2),
                    "images.save_ppm": (1, 1), "images.upsample": (2, 2)},
}
