"""Class-partitioned key-values memory for cross-domain style transfer.

The bank stores unit-norm key rows (shared content space) paired with one
value row per visual domain (domain-specific style). Training reads and
updates address only the partition of the querying class; test-time reads
run over all items with no class information. Contrastive and triplet item
losses train tiny affine encoders through hand-derived gradients, and a
deterministic synthetic-scene harness reproduces the ablation trends between
single vs class-partitioned memory and triplet vs contrastive training.
"""

from .memory import MemoryLayout, address_blocks, init_bank, read, read_global, update
from .objectives import contrastive_loss

__version__ = "0.1.0"
