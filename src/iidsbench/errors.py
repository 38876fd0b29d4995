"""Exception types shared across the harness, and the config key check
that raises ConfigError."""


class HarnessError(Exception):
    """Base class for every error this package raises on purpose."""


class DatasetError(HarnessError):
    """A dataset file or dataset configuration cannot be used."""


class TaxonomyError(HarnessError):
    """The attack taxonomy is malformed or internally inconsistent."""


class SplitError(HarnessError):
    """A fold plan or scenario split cannot be built from the given inputs."""


class TrainError(HarnessError):
    """Classifier training cannot proceed."""


class ConfigError(HarnessError):
    """An experiment or classifier configuration is invalid."""


class RunError(HarnessError):
    """Experiment execution, resumption, or comparison failed."""


class ReportError(HarnessError):
    """Rendering input is malformed."""


def reject_unknown_keys(data, known, where: str) -> None:
    """Raise ConfigError unless data is a JSON object whose keys all lie in
    known, so a misspelt config key fails instead of falling back to a default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
