"""Class-partitioned key-values memory for cross-domain style transfer.

The bank stores unit-norm key rows (shared content space) paired with one
value row per visual domain (domain-specific style). Training reads and
updates address only the partition of the querying class; test-time reads
run over all items with no class information. Contrastive and triplet item
losses train tiny affine encoders through hand-derived gradients, and a
deterministic synthetic-scene harness reproduces the ablation trends between
single vs class-partitioned memory and triplet vs contrastive training.
"""

from .encoder import (
    EncoderSet,
    LinearEncoder,
    LossReport,
    TrainSettings,
    backward,
    compute_losses,
    forward,
    load_encoders,
    save_encoders,
    train_step,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    RunResult,
    SceneConfig,
    evaluate,
    inspect_bank,
    load_config,
    resolve_config,
    run_training,
)
from .memory import (
    MemoryBank,
    MemoryLayout,
    QuerySet,
    ReadResult,
    address,
    init_bank,
    load_bank,
    read,
    read_backward,
    read_global,
    save_bank,
    update,
    update_weights,
)
from .numerics import (
    AdamState,
    Cosines,
    adam_step,
    cosine_matrix,
    cosine_similarity,
    l2_normalize,
    make_rng,
    softmax_cols,
    softmax_rows,
    split_rng,
)
from .objectives import ContrastiveConfig, FdReport, LossTerm, contrastive_loss, fd_check, triplet_loss
from .synthdata import DomainSpec, FeatureScene, generate_scene_pair

__version__ = "0.1.0"
