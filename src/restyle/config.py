"""Flat key=value run configuration with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .encoder import DEFAULT_CHANNELS, NUM_STAGES, side_multiple
from .errors import ConfigError


@dataclass
class RunConfig:
    seed: int = 7
    image_size: int = 96
    channels: tuple[int, ...] = DEFAULT_CHANNELS
    levels: int = 3
    lr: float = 1e-3
    steps: int = 600
    batch: int = 2
    lambda_pc: float = 1.0
    lambda_ps: tuple[float, ...] = (1.0, 5.0, 8.0)
    lambda_tv: float = 1e-6
    zero_pair_weight: float = 0.1
    content_count: int = 64
    style_count: int = 16
    model_dir: str = "model"

    def validate(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        weights = {"lambda_pc": self.lambda_pc, "lambda_tv": self.lambda_tv,
                   "zero_pair_weight": self.zero_pair_weight,
                   **{f"lambda_ps[{i}]": v for i, v in enumerate(self.lambda_ps)}}
        for name, v in weights.items():
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if len(self.channels) != NUM_STAGES:
            raise ConfigError(f"channels needs {NUM_STAGES} values, got {len(self.channels)}")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if len(self.lambda_ps) != self.levels:
            raise ConfigError(f"lambda_ps needs {self.levels} values, got {len(self.lambda_ps)}")
        need = side_multiple(self.levels)
        if self.image_size < need or self.image_size % need:
            raise ConfigError(f"image_size {self.image_size} not positive and divisible by {need}")
        if not all(c > 0 for c in self.channels):
            raise ConfigError("channels must be positive")
        if self.steps < 0 or self.batch < 1:
            raise ConfigError("steps must be >= 0 and batch >= 1")
        if self.content_count < 1 or self.style_count < 1:
            raise ConfigError("corpus counts must be positive")
        if not self.model_dir:
            raise ConfigError("model_dir must not be empty")
        return self


_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[int, ...]": lambda v: tuple(int(x) for x in v.split(",")),
            "tuple[float, ...]": lambda v: tuple(float(x) for x in v.split(","))}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values).validate()


def read_text(path) -> str:
    """Text of a UTF-8 file, newlines translated; other bytes raise ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") \
                from exc


def load_config(path) -> RunConfig:
    return parse_config(read_text(path))


def format_config(cfg: RunConfig) -> str:
    """Canonical snapshot text; parsing it reproduces the config exactly."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
