"""Exception types shared across modules."""


class ConfigError(ValueError):
    """Invalid run configuration or input file (maps to CLI exit code 2)."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""
