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
    pass


class DimMismatch(ProjGeoError):
    pass


class BadRank(ProjGeoError):
    pass


class InconsistentDims(ProjGeoError):
    pass


# geodesics

class NoGeodesic(ProjGeoError):
    pass


class BadIndex(ProjGeoError):
    pass


class BadUnitarySize(ProjGeoError):
    pass


# block-periodic model

class BlockDimMismatch(ProjGeoError):
    pass


class NoSpectralGap(ProjGeoError):
    """An eigenvalue of an input block falls inside the forbidden band around
    1/2, so thresholding cannot separate the spectrum into a projection."""


class NotCodiagonal(ProjGeoError):
    pass


class NormTooLarge(ProjGeoError):
    pass


class NotPeriodic(ProjGeoError):
    """A minimal geodesic exists, but the block-periodic model cannot
    represent it: its crossed pairing would cross block boundaries."""
