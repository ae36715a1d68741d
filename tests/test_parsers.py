"""Property tests: the PPM, checkpoint and config parsers raise only their
documented errors, on arbitrary input and on mutations of valid input."""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from restyle import checkpoint
from restyle.config import RunConfig, format_config, parse_config
from restyle.errors import CheckpointError, ConfigError, PpmParseError
from restyle.images import load_ppm, save_ppm

# derandomized, so every run of the suite tries the same inputs
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

VALID_PPM = save_ppm(np.random.default_rng(0).random((3, 2, 3)).astype(np.float32))
VALID_CKPT = checkpoint.dumps({"a.weight": np.ones((2, 3, 1, 1), dtype=np.float32),
                               "b": np.arange(5, dtype=np.float32),
                               "s": np.ones((), dtype=np.float32)})
VALID_CONFIG = format_config(RunConfig())

# (kind, position, value): replace, insert or delete one element
edits = st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 1 << 16),
                           st.integers(0, 255)), min_size=1, max_size=4)


def mutate(seq, ops, element):
    out = list(seq)
    for kind, pos, value in ops:
        i = pos % (len(out) + 1)
        if kind == "i" or not out:
            out.insert(i, element(value))
        elif kind == "r":
            out[i % len(out)] = element(value)
        else:
            del out[i % len(out)]
    return out


def only_raises(error, parse, data):
    """Run `parse`; anything but a successful return or `error` fails the test."""
    try:
        parse(data)
    except error:
        pass


@PROPERTY
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: b"P6" + b)))
def test_ppm_arbitrary_bytes(data):
    only_raises(PpmParseError, load_ppm, data)


@PROPERTY
@given(edits)
def test_ppm_mutations(ops):
    only_raises(PpmParseError, load_ppm, bytes(mutate(VALID_PPM, ops, int)))


@PROPERTY
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: b"ETNT" + b)))
def test_checkpoint_arbitrary_bytes(data):
    only_raises(CheckpointError, checkpoint.loads, data)


@PROPERTY
@given(edits)
def test_checkpoint_mutations(ops):
    only_raises(CheckpointError, checkpoint.loads, bytes(mutate(VALID_CKPT, ops, int)))


@PROPERTY
@given(st.one_of(st.text(max_size=80),
                 st.lists(st.tuples(st.sampled_from([f.name for f in fields(RunConfig)]),
                                    st.text(max_size=12)), max_size=6)
                 .map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv))))
def test_config_arbitrary_text(text):
    only_raises(ConfigError, parse_config, text)


@PROPERTY
@given(edits)
def test_config_mutations(ops):
    only_raises(ConfigError, parse_config, "".join(mutate(VALID_CONFIG, ops, chr)))
