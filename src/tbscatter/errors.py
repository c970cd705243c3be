"""Exception types shared across the package."""


class ScatterError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ScatterError):
    """Array shapes are inconsistent with each other or with the operation."""


class SingularMatrix(ScatterError):
    """A pivot fell below the singularity threshold during factorization."""


class IndexOutOfRange(ScatterError):
    """A 1-based row/column/site index lies outside the valid range."""


class NotHermitian(ScatterError):
    """A block that must be Hermitian is not, within tolerance."""

    def __init__(self, block: str, defect: float):
        self.block = block
        self.defect = defect
        super().__init__(f"block {block} is not Hermitian (defect {defect:.3e})")


class ParseError(ScatterError):
    """A spec document is malformed; the message carries line/field context."""


class MomentumOutOfBand(ScatterError):
    """Momentum outside the open propagating band (0, pi)."""


class SingularDelta(ScatterError):
    """The energy-shifted center matrix is singular at this momentum."""


class PoleAtK(ScatterError):
    """The scattering denominator vanishes at this momentum."""


class SingularSystem(ScatterError):
    """The augmented direct-solve system is singular at this momentum."""


class InvalidSite(ScatterError):
    """Lead-site index 0 does not exist; leads are j <= -1 and j >= +1."""


class InvalidRange(ScatterError):
    """A sweep range or step count is invalid."""


class ZetaPole(ScatterError):
    """A term of the 4-site zeta function has a vanishing denominator."""


class NotInConservingClass(ScatterError):
    """The requested model has no Hermitian-block decomposition."""


class JointOutsideAxis(ScatterError):
    """A lead joint must sit on a parity-axis site to allow the fold."""


class InvalidConfig(ScatterError):
    """A wavepacket configuration violates its geometric invariants."""


class NonFiniteState(ScatterError):
    """A time-evolved state's norm stopped being a finite number."""
