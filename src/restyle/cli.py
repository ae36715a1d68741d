"""Command-line interface: train, stylize, refine, eval, gradcheck."""

from __future__ import annotations

import argparse
import os
import sys

from . import checkpoint, trainer
from . import gradcheck as gradcheck_mod
from .config import load_config, read_text
from .errors import CheckpointError, ConfigError, ContractError, PpmParseError, \
    TrainingDiverged
from .images import load_ppm, save_ppm
from .stylizer import refine_external, stylize


def _read_image(path):
    with open(path, "rb") as fh:
        return load_ppm(fh.read())


def _write_image(path, img):
    with open(path, "wb") as fh:
        fh.write(save_ppm(img))


def cmd_train(args):
    cfg = load_config(args.config)
    trainer.check_level(cfg, args.level)  # before anything is written to model_dir
    enc = trainer.make_model_encoder(cfg)
    trainer.init_model_dir(cfg.model_dir, cfg, enc)
    frozen = trainer.load_frozen_levels(cfg.model_dir, cfg, args.level)
    result = trainer.train_level(cfg, args.level, enc, frozen)
    out = args.out or os.path.join(cfg.model_dir, trainer.level_file(args.level))
    trainer.save_level_checkpoint(out, result.params)
    log_path = os.path.splitext(out)[0] + ".log"
    checkpoint.write_atomic(log_path, "".join(line + "\n" for line in result.log_lines)
                            .encode("utf-8"))
    print(f"trained level {args.level}: {out} ({len(result.log_lines)} steps)")
    return 0


def cmd_stylize(args):
    model, _ = trainer.load_model_dir(args.model)
    content = _read_image(args.content)
    style = _read_image(args.style)
    result = stylize(content, style, model, alpha=args.alpha)
    _write_image(args.out, result.final)
    if args.save_intermediates:
        os.makedirs(args.save_intermediates, exist_ok=True)
        base = os.path.splitext(os.path.basename(args.out))[0]
        depth = model.depth
        for i, img in enumerate(result.intermediates):
            level = depth - i
            _write_image(os.path.join(args.save_intermediates,
                                      f"{base}.level{level}.ppm"), img)
    return 0


def cmd_refine(args):
    model, _ = trainer.load_model_dir(args.model)
    external = _read_image(args.input)
    content = _read_image(args.content)
    style = _read_image(args.style)
    result = refine_external(external, content, style, model, args.level)
    _write_image(args.out, result.final)
    return 0


def cmd_eval(args):
    model, _ = trainer.load_model_dir(args.model)
    pairs = []
    for lineno, line in enumerate(read_text(args.pairs).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{args.pairs}:{lineno}: expected two TAB-separated paths")
        pairs.append((_read_image(parts[0]), _read_image(parts[1])))
    if not pairs:
        raise ConfigError(f"{args.pairs}: no pairs listed")
    result = trainer.evaluate(model, pairs)
    depth = model.depth
    header = "loss\t" + "\t".join(f"K={k}" for k in range(1, depth + 1))
    row_c = "L_c\t" + "\t".join(repr(float(v)) for v in result.content)
    row_s = "L_s\t" + "\t".join(repr(float(v)) for v in result.style)
    table = f"{header}\n{row_c}\n{row_s}\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def cmd_gradcheck(args):
    names = {args.op} if args.op else None
    if names:
        known = {c.name for c in gradcheck_mod.standard_suite()}
        if args.op not in known:
            raise ConfigError(f"unknown op {args.op!r}; choose from {sorted(known)}")
    results = gradcheck_mod.run_suite(names=names, report=print)
    return 0 if results and all(ok for _, _, ok in results) else 3


def build_parser():
    parser = argparse.ArgumentParser(prog="restyle",
                                     description="Iterative error-correcting style transfer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one pyramid level")
    p.add_argument("--config", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("stylize", help="stylize a content image")
    p.add_argument("--content", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--save-intermediates", default=None)
    p.set_defaults(fn=cmd_stylize)

    p = sub.add_parser("refine", help="refine an external stylization")
    p.add_argument("--input", required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("eval", help="loss table over a pair list")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--op", default=None)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (ContractError, PpmParseError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path that cannot be opened; only the --config file is a config error
        category = "config" if args.command == "train" and exc.filename == args.config else "file"
        reason = f"{exc.strerror}: {exc.filename}" if exc.filename is not None else exc
        print(f"error: {category}: {reason}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
