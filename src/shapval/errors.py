"""Exception types shared across the package."""


class ShapvalError(Exception):
    """Base class for errors raised by this package."""


class SizeGuardError(ShapvalError):
    """A computation refused before it starts because its size exceeds a guard."""


class UtilityRangeError(ShapvalError):
    """A utility evaluation fell outside the declared [0, r] range."""


class ConfigError(ShapvalError):
    """Experiment configuration is malformed or inconsistent."""


class UnknownMethodError(ConfigError):
    """Configuration names a method this package does not provide."""
