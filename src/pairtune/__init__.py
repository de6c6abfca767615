"""Finetune sentence-embedding encoders to a target domain with a Siamese
pair objective, and measure class separation with a cosine-distance gap."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusError,
    LabeledExample,
    SplitSpec,
    VectorTable,
    load_corpus,
    load_vectors,
    split_corpus,
    write_corpus,
    write_vectors,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    Vocabulary,
    build_vocab,
    encode,
    encode_backward,
    init_encoder_params,
    load_model,
    make_embedder,
    make_input_fn,
    save_model,
    tokenize,
)
from .episodes import EpisodeError, EpisodeSpec, PairSet, generate_episodes
from .evaluation import (
    DeltaReport,
    EvalSpec,
    cosine_distance,
    delta_cosine_distance,
    emit_report,
    eval_pairs,
    parse_report,
)
from .synthetic import synthetic_corpus
from .training import (
    NaiveConfig,
    NumericError,
    OptimizerState,
    SiameseConfig,
    TrainingReport,
    optimizer_step,
    siamese_loss,
    train_naive,
    train_siamese,
)
