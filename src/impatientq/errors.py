"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """An input specification or config file is invalid."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ResourceCapError(RuntimeError):
    """An enumeration or horizon cap was exceeded."""

    def __init__(self, message: str, cap: int, requested: int):
        super().__init__(f"{message} (cap={cap}, requested={requested})")
        self.message = message
        self.cap = cap
        self.requested = requested

