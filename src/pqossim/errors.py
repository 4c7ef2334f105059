"""Exception types and input checks shared across the package."""

import math


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class CheckpointError(ValueError):
    """An agent checkpoint file is missing fields or inconsistent."""


def check_finite(config) -> None:
    """Raise ConfigError naming the first float field of `config` that is NaN or infinite."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def read_utf8(path, error: type[ValueError] = ValueError) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 raise `error` naming the path and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
