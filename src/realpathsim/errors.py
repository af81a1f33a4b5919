"""Exception hierarchy for realpathsim.

Every error raised by the library derives from RealPathError so callers
(and the CLI) can distinguish model/spec problems from programming bugs.
"""


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


class DegenerateSegment(RealPathError):
    """A path segment has non-positive duration."""


class TimeMismatch(RealPathError):
    """Composite components do not line up in time."""


class EndpointMismatch(RealPathError):
    """Two paths that must share endpoints do not."""


class IncompatibleGrids(RealPathError):
    """Two paths have non-overlapping time ranges."""


class StructureMismatch(RealPathError):
    """Two composites differ in kind, arity, or component spans."""


class TooManyComponents(RealPathError):
    """Permutation symmetrization is limited to small products."""


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
