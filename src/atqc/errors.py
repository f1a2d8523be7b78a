"""Exception hierarchy, the integer gate and the checked-record base, shared across the toolkit."""


class AtqcError(Exception):
    """Base class for all toolkit errors."""


class InputError(AtqcError, ValueError):
    """Malformed or out-of-domain user input (CLI exit code 2)."""


class ComplexError(AtqcError, ValueError):
    """A surface complex violates one of its structural invariants."""


class IntegrityError(AtqcError):
    """A derived quantity contradicts the complex itself (e.g. betti1 != 2g)."""


class DiscrepancyError(AtqcError):
    """Search and oracle disagree; a finding, never silenced (CLI exit 3)."""


def _as_int(value, what: str, error: type[AtqcError] = InputError) -> int:
    """value itself if it is an int and not a bool; else error names what."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


class _Checked:
    """Base of a NamedTuple subclass whose ``__new__`` checks its fields.  NamedTuple's
    ``_make``, which its ``_replace`` calls, skips ``__new__``; this one builds through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
