"""Exception types and the desk-scale guards shared across the package."""


class ConfigMismatchError(ValueError):
    """Two values built under different (p, n) configurations were combined."""


class ParseError(ValueError):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceGuardError(RuntimeError):
    """A computation was refused because it exceeds the supported desk scale."""


DESK_SCALE_POINTS = 400  # refuse group-size work beyond p^n of this size
DESK_SCALE_BYTES = 1 << 30  # refuse work whose estimated peak exceeds this


def guard(needed, bound, message):
    """Raise ResourceGuardError(message) when needed exceeds bound.

    Every desk-scale limit of the package goes through here, so each
    refusal is a ResourceGuardError and the CLI exits 2 for it.
    """
    if needed > bound:
        raise ResourceGuardError(message)


def guard_points(cfg):
    """Refuse group-size work at more than DESK_SCALE_POINTS vectors p^n."""
    points = cfg.p**cfg.n
    guard(
        points,
        DESK_SCALE_POINTS,
        f"p^n = {points} exceeds the desk-scale bound {DESK_SCALE_POINTS}",
    )


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""
