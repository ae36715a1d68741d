"""Run-configuration parsing tests."""

import pytest

from restyle.config import RunConfig, format_config, parse_config
from restyle.errors import ConfigError


class TestParse:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.seed == 7
        assert cfg.image_size == 96
        assert cfg.channels == (16, 32, 64, 128)
        assert cfg.levels == 3
        assert cfg.lambda_pc == 1.0
        assert cfg.lambda_ps == (1.0, 5.0, 8.0)
        assert cfg.lambda_tv == 1e-6
        assert cfg.batch == 2

    def test_overrides_and_comments(self):
        cfg = parse_config("seed = 3\n# comment\nlambda_ps = 2,3,4  # inline\nsteps=10\n")
        assert cfg.seed == 3
        assert cfg.lambda_ps == (2.0, 3.0, 4.0)
        assert cfg.steps == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("steps = soon\n")

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config("image_size = 50\n")

    def test_lambda_count_must_match_levels(self):
        with pytest.raises(ConfigError, match="lambda_ps"):
            parse_config("levels = 2\n")
        assert parse_config("levels = 2\nlambda_ps = 1,5\nimage_size = 32\n").levels == 2

    def test_snapshot_roundtrip(self):
        cfg = parse_config("seed = 9\nlr = 0.0005\nchannels = 4,6,8,10\nimage_size = 64\n")
        again = parse_config(format_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("line,key", [
        ("seed = -1", "seed"),
        ("lr = nan", "lr"),
        ("lr = inf", "lr"),
        ("lr = 0", "lr"),
        ("lr = -0.001", "lr"),
        ("lambda_pc = -1", "lambda_pc"),
        ("lambda_pc = nan", "lambda_pc"),
        ("lambda_tv = -1e-6", "lambda_tv"),
        ("lambda_ps = 1,-5,8", "lambda_ps"),
        ("lambda_ps = 1,5,inf", "lambda_ps"),
        ("zero_pair_weight = -0.1", "zero_pair_weight"),
    ])
    def test_out_of_range_value_rejected(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line + "\n")

    def test_zero_weights_and_seed_accepted(self):
        cfg = parse_config("seed = 0\nlambda_pc = 0\nlambda_ps = 0,0,0\nlambda_tv = 0\n"
                           "zero_pair_weight = 0\n")
        assert cfg.seed == 0 and cfg.zero_pair_weight == 0.0
