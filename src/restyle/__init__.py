"""Iterative error-correcting arbitrary style transfer over an image pyramid."""

from .autodiff import ConvParams, Tensor, backward
from .config import RunConfig, load_config, parse_config
from .corpus import CorpusSpec, make_corpus, make_test_pairs
from .encoder import Encoder, ErrorBundle, FeatureStack, compute_errors, encode, fuse, \
    make_encoder
from .errors import CheckpointError, ConfigError, ContractError, PpmParseError, \
    TrainingDiverged
from .images import downsample, load_ppm, save_ppm, upsample
from .stylizer import PyramidModel, StylizeResult, refine_external, refine_level, stylize, \
    stylize_alpha
from .trainer import Adam, EvalResult, LossWeights, content_loss, evaluate, style_loss, \
    train_level, tv_loss
from .transition import LevelParams, etnet_forward, make_level_params, nonlocal_block, \
    propagation_block

__version__ = "0.1.0"
