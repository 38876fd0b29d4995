"""Exception types shared across the harness, and the config checks that
raise them. A check names the field and never coerces: an integer field
takes an int, not a bool or 2.0; a real field takes an int or a finite
float; a list of choices comes back in canonical order; a text field takes
a non-empty string.
"""

import sys


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


def check_int(value, where: str, minimum: int, error=ConfigError) -> int:
    """Return value if it is an int, not a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{where} must be an integer of at least {minimum}, got {value!r}")
    return value


def check_ints(values, where: str, minimum: int, error=ConfigError) -> tuple[int, ...]:
    """Return a list of check_int values as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{where} must be a list of integers, got {values!r}")
    return tuple(check_int(value, where, minimum, error) for value in values)


def check_real(value, where: str, positive: bool = False, error=ConfigError):
    """Return value, unchanged, if it is an int or float, not a bool, that is
    finite (the bound also rejects NaN and ints too large for a float) and,
    if positive is set, above 0."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max and (value > 0 or not positive)):
        kind = "positive number" if positive else "number"
        raise error(f"{where} must be a finite {kind}, got {value!r}")
    return value


def check_choices(values, where: str, allowed: tuple) -> tuple:
    """Return a non-empty list of allowed values as a tuple in the order of
    allowed, duplicates dropped, so that equal choices hash equal."""
    if not isinstance(values, (list, tuple)) or not values or any(v not in allowed for v in values):
        raise ConfigError(f"{where} must be a non-empty list of {list(allowed)}, got {values!r}")
    return tuple(choice for choice in allowed if choice in values)


def check_text(value, where: str, error=ConfigError) -> str:
    """Return value if it is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise error(f"{where} must be a non-empty string, got {value!r}")
    return value
