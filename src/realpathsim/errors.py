"""Exception hierarchy for realpathsim.

Every error raised by the library derives from RealPathError so callers
(and the CLI) can distinguish model/spec problems from programming bugs.
A value of the wrong type, as ``integer`` and ``real`` refuse, raises
ValueError.
"""


def integer(value, what: str) -> int:
    """``value`` as an int; a bool, a string or a number with a fraction raises ValueError.

    int() alone would run 24.9 as 24, true as 1 and "24" as 24; an
    integral float such as 1e6 passes.
    """
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


def real(value, what: str) -> float:
    """``value`` as a float; a bool or a string, which float() would take, raises ValueError."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    return float(value)


class RealPathError(Exception):
    """Base class for all realpathsim errors."""


class EmptyEnsemble(RealPathError):
    """An ensemble needs at least one path."""


class NonUnitAmplitude(RealPathError):
    """A path amplitude is not of modulus one."""

    def __init__(self, index: int, value: complex):
        self.index = index
        self.value = value
        super().__init__(
            f"amplitude at index {index} has modulus {abs(value):.6g}, expected 1"
        )


class EndpointMismatch(RealPathError):
    """Two paths that must share endpoints do not."""


class SpecViolation(RealPathError):
    """A model spec breaks one of its parity/ordering conditions."""


class PreconditionViolation(RealPathError):
    """A closed-form regime formula was asked outside its premises."""


class AllZeroProbability(RealPathError):
    """Every candidate path has zero weight; no distribution exists."""


class ModelTooLarge(RealPathError):
    """A model exceeds its desk-scale path or memory budget."""


class NoPaths(RealPathError):
    """No lattice path connects the requested endpoints."""


class TooManyPaths(RealPathError):
    """Exhaustive lattice enumeration would exceed its bound."""


class AntiCausalArgument(RealPathError):
    """An anti-causal path was passed where one is not allowed."""


class NonCausalPlainArgument(RealPathError):
    """Plain proper-time distance requires a causal first argument."""


class GridTooLarge(RealPathError):
    """A sweep grid exceeds the configured cell budget."""
