"""Exception types shared across the toolkit."""


class EmberwatchError(Exception):
    """Base class for all toolkit errors."""


class DomainError(EmberwatchError):
    """A physical quantity left the domain where the model is defined.

    `name` is the quantity at fault, spelled as the config field that sets it.
    """

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


class SingularResidual(EmberwatchError):
    """The residual covariance is too ill-conditioned to invert."""


class InvalidSplit(EmberwatchError):
    """A path partition was requested with more parts than nodes."""


class NoUavAvailable(EmberwatchError):
    """A safety request arrived while the UAV pool was empty."""


class ConfigError(EmberwatchError):
    """A scenario configuration is invalid.

    Carries the dotted path of the offending field so CLI users can find
    it in their config file.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
