"""Exception types, the desk-scale guards and the CLI's integer reader."""


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


def ascii_int(text):
    """The integer that text spells as [+-]?[0-9]+, surrounding whitespace aside.

    int() alone also reads other scripts' digits ("\u0663") and underscores
    ("9_7"); every integer the CLI reads from its options or a weights file
    comes through here instead.
    """
    word = text.strip()
    digits = word[1:] if word[:1] in ("+", "-") else word
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an ASCII integer")
    return int(word)


def guard(needed, bound, message):
    """Raise ResourceGuardError(message) when needed exceeds bound.

    Every desk-scale limit of the package goes through here but
    backend.poly_mul's, which raises ResourceGuardError itself from inside
    its loop; so each refusal is a ResourceGuardError and the CLI exits 2.
    """
    if needed > bound:
        raise ResourceGuardError(message)


def guard_bytes(what, needed):
    """Refuse work whose estimated peak, needed bytes, exceeds
    DESK_SCALE_BYTES; what says what the work holds."""
    guard(needed, DESK_SCALE_BYTES, f"{what}, about {needed} bytes; bound is {DESK_SCALE_BYTES}")


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
