"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible, empty, or wrongly-ranked shapes."""


class LayoutError(ValueError):
    """A memory layout is invalid, or a class id is not present in it."""


class EmptyClusterError(ValueError):
    """A query set carries no rows; callers are expected to skip it."""


class PoolError(ValueError):
    """The positive pool is empty, out of range, or too small for the loss."""


class ValidationError(ValueError):
    """A persisted artifact is malformed or violates its schema invariants."""


class GenerationError(ValueError):
    """Scene generation cannot satisfy the requested grid geometry."""


class ConfigError(ValueError):
    """An experiment configuration is incomplete or out of range."""


# every type above: the CLI reports them as "error: ..." with exit code 1
ERRORS = (
    ConfigError,
    ValidationError,
    LayoutError,
    ShapeError,
    PoolError,
    EmptyClusterError,
    GenerationError,
)
