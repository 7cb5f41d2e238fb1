"""Exception types shared across the package."""


class ConfigMismatchError(ValueError):
    """Two values built under different (p, n) configurations were combined."""


class ParseError(ValueError):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceGuardError(RuntimeError):
    """A computation was refused because it exceeds the supported desk scale."""


def guard(needed, bound, message):
    """Raise ResourceGuardError(message) when needed exceeds bound.

    Every desk-scale limit of the package goes through here, so each
    refusal is a ResourceGuardError and the CLI exits 2 for it.
    """
    if needed > bound:
        raise ResourceGuardError(message)


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""
