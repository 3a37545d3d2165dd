"""Exception hierarchy shared by all modules."""


class ProjGeoError(Exception):
    """Base class for every error raised by this package."""


# linear-algebra kernels

class NotHermitian(ProjGeoError):
    pass


class NoConvergence(ProjGeoError):
    pass


class NotUnitary(ProjGeoError):
    pass


# projections and pairs

class NotAProjection(ProjGeoError):
    """A matrix is not a selfadjoint projection; ``defects`` is ``(|P - P*|,
    |P^2 - P|)`` of the first refused matrix, when ``make_projection`` measured it."""

    def __init__(self, message: str, defects=None):
        ProjGeoError.__init__(self, message)
        self.defects = defects


class DimMismatch(ProjGeoError):
    """Operand shapes do not fit: of a pair, a block or a crossed pairing."""


class InconsistentDims(ProjGeoError):
    """The requested dimensions are impossible."""


# geodesics

def _init_with_index(self, message: str, index=None):
    """``__init__`` of a refusal that carries the ``IndexPair`` it found as ``index``."""
    ProjGeoError.__init__(self, message)
    self.index = index


class NoGeodesic(ProjGeoError):
    """No geodesic joins the pair; ``index`` is the index pair found."""

    __init__ = _init_with_index


class BadIndex(ProjGeoError):
    """A family of geodesics needs a crossed part: the index pair is (0, 0)."""


# block-periodic model

class NoSpectralGap(ProjGeoError):
    """An eigenvalue of an input block falls inside the forbidden band around
    1/2, so thresholding cannot separate the spectrum into a projection."""


class NotCodiagonal(ProjGeoError):
    pass


class NormTooLarge(ProjGeoError):
    pass


class NotPeriodic(ProjGeoError):
    """A minimal geodesic exists, but the block-periodic model cannot
    represent it: its crossed pairing would cross block boundaries.
    ``index`` is the unbalanced tail index pair."""

    __init__ = _init_with_index
