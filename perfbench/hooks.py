"""Wrapping restyle's public functions from outside the package.

Two users: item boundaries (an untraced training run still has to know when
each optimizer step ends) and the traced run, which records a span around
every call of a named layer plus computed counts.

Several modules import functions by name (`from .encoder import encode`), so
wrapping the defining module alone would miss those call sites. `Patcher`
replaces every binding of a function object in every loaded `restyle`
module, and restores them all on `undo`.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import defaultdict


def _restyle_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "restyle" or name.startswith("restyle."))]


def _resolve(target):
    """'restyle.trainer:Adam.step' -> (owner, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Replace functions and methods in restyle's modules; `undo` restores them."""

    def __init__(self):
        self._undo = []

    def wrap(self, target, make_wrapper):
        """Wrap `target` ('module:function' or 'module:Class.method') everywhere.

        A module-level function is replaced in every restyle module that binds
        the same object; a method is replaced on its class.
        """
        owner, attr, current = _resolve(target)
        wrapper = make_wrapper(current)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper, owner.__dict__[attr])
            return
        for mod in _restyle_modules():
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._set(mod, name, wrapper, current)

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def undo(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# Layers wrapped in the traced run: span name -> wrapped binding.
LAYER_TARGETS = {
    "autodiff.backward": "restyle.autodiff:backward",
    "encoder.encode": "restyle.encoder:encode",
    "encoder.errors_between": "restyle.encoder:errors_between",
    "transition.etnet_forward": "restyle.transition:etnet_forward",
    "transition.run_decoder": "restyle.transition:run_decoder",
    "transition.nonlocal_block": "restyle.transition:nonlocal_block",
    "transition.propagation_block": "restyle.transition:propagation_block",
    "stylizer.stylize": "restyle.stylizer:stylize",
    "stylizer.refine_level": "restyle.stylizer:refine_level",
    "trainer.train_level": "restyle.trainer:train_level",
    "trainer.init_level_params": "restyle.trainer:init_level_params",
    "trainer.tv_loss": "restyle.trainer:tv_loss",
    "trainer.Adam.step": "restyle.trainer:Adam.step",
    "trainer.TargetCache.features": "restyle.trainer:TargetCache.features",
    "trainer.load_model_dir": "restyle.trainer:load_model_dir",
    "images.load_ppm": "restyle.images:load_ppm",
    "images.save_ppm": "restyle.images:save_ppm",
    "images.downsample": "restyle.images:downsample",
    "images.upsample": "restyle.images:upsample",
    "checkpoint.read": "restyle.checkpoint:read",
    "corpus.make_corpus": "restyle.corpus:make_corpus",
    "cli.main": "restyle.cli:main",
}

# Autodiff ops whose forward call gets a span `autodiff.<op>.fwd`. Every
# op's backward closure gets a span `<module>.<op>.bwd` through `record`.
FORWARD_OPS = ("conv2d", "avgpool2x", "upsample_nearest2x", "matmul", "softmax_rows", "gram")


def _gemm_shape(op, out, parents):
    """(M, K, N) of the GEMM behind one conv2d or matmul call, else None."""
    if op == "conv2d":
        c_out, c_in, k, _ = parents[1].shape
        return c_out, c_in * k * k, out.shape[1] * out.shape[2]
    if op == "matmul":
        m, k = parents[0].shape
        return m, k, parents[1].shape[1]
    return None


class Tracer:
    """In-memory spans (name, start, end, parent) and counters.

    `install` wraps the layers on a Patcher; `uninstall` restores them, so
    code outside the traced units runs the original functions.
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._patcher = Patcher()

    def _span(self, name, fn, on_return=None, keep_meta=True):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        # backward closures are wrapped per node, so they skip the metadata copy
        return functools.wraps(fn)(traced) if keep_meta else traced

    def install(self):
        counts = self.counts
        for name, target in LAYER_TARGETS.items():
            on_return = None
            if name == "checkpoint.read":
                def on_return(args, _result):
                    counts["checkpoint.read.bytes"] += os.path.getsize(args[0])
            self._patcher.wrap(target, lambda fn, n=name, cb=on_return: self._span(n, fn, cb))
        for op in FORWARD_OPS:
            self._patcher.wrap(f"restyle.autodiff:{op}",
                               lambda fn, n=f"autodiff.{op}.fwd": self._span(n, fn))
        self._patcher.wrap("restyle.autodiff:record", self._traced_record)

    def uninstall(self):
        self._patcher.undo()

    def _traced_record(self, record):
        """Count every op node, add computed GEMM counts, time backward closures."""
        counts, span = self.counts, self._span
        ops = {}  # closure code object -> (op name, backward span name)

        def traced_record(data, parents, backward):
            counts["autodiff.record.calls"] += 1
            code = backward.__code__
            if code not in ops:
                op = backward.__qualname__.partition(".")[0]
                ops[code] = (op, f"{backward.__module__.rpartition('.')[2]}.{op}.bwd")
            op, bw_name = ops[code]
            gemm = _gemm_shape(op, data, parents)
            if gemm is not None:
                m, k, n = gemm
                gemm_bytes = data.itemsize * (m * k + k * n + m * n)
                counts[f"autodiff.{op}.flop"] += 2 * m * k * n
                counts[f"autodiff.{op}.bytes"] += gemm_bytes
            if not any(p.requires_grad for p in parents):
                return record(data, parents, backward)
            bw = span(bw_name, backward, keep_meta=False)
            if gemm is not None:
                # one GEMM of the forward's size per input that needs a gradient
                grads = sum(1 for p in parents[:2] if p.requires_grad)

                def gemm_bw(g, bw=bw):
                    counts[f"autodiff.{op}.flop"] += grads * 2 * m * k * n
                    counts[f"autodiff.{op}.bytes"] += grads * gemm_bytes
                    return bw(g)

                return record(data, parents, gemm_bw)
            return record(data, parents, bw)

        return traced_record

    def __len__(self):
        return len(self.starts)

    def summarize(self, ranges):
        """Per-name call count, total and self nanoseconds over span ranges.

        `ranges` lists (first span, end span) pairs. Self time is the span's
        duration minus the durations of its direct children; calls nest and
        run on one thread, so children never overlap.
        """
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for lo, hi in ranges:
            child = defaultdict(int)
            for i in range(lo, hi):
                child[self.parents[i]] += self.ends[i] - self.starts[i]
            for i in range(lo, hi):
                dur = self.ends[i] - self.starts[i]
                calls[self.names[i]] += 1
                total[self.names[i]] += dur
                self_ns[self.names[i]] += dur - child[i]
        return calls, total, self_ns

    def write(self, path, units):
        """Write every span as a TSV line: id, parent, unit, name, start_ns, end_ns.

        `units` lists (unit label, first span, end span); spans outside every
        range belong to set-up.
        """
        label = ["setup"] * len(self.starts)
        for name, lo, hi in units:
            label[lo:hi] = [name] * (hi - lo)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tunit\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{label[i]}\t{self.names[i]}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")
