"""Exception types shared across the package."""


class StylememError(ValueError):
    """Base of every package error: the CLI reports it as "error: ..." with exit code 1."""


class ShapeError(StylememError):
    """Operands have incompatible, empty, or wrongly-ranked shapes."""


class LayoutError(StylememError):
    """A memory layout is invalid, or a class id is not present in it."""


class EmptyClusterError(StylememError):
    """An empty ``QuerySet`` was passed to ``read`` or ``read_backward``."""


class PoolError(StylememError):
    """The positive pool is empty, out of range, or too small for the loss."""


class ValidationError(StylememError):
    """A persisted artifact is malformed or violates its schema invariants."""


class GenerationError(StylememError):
    """Scene settings are out of range, or their prototypes coincide."""


class ConfigError(StylememError):
    """An experiment configuration is incomplete or out of range."""
