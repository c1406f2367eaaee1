"""Exception types raised by the gamow_lab numerics."""


class GamowLabError(Exception):
    """Base class for all gamow_lab errors."""


class PoleProximity(GamowLabError):
    """Scattering coefficient evaluated (numerically) exactly at a pole."""


class SeedOutOfRegime(GamowLabError):
    """Asymptotic pole seed requested outside its validity range."""


class WrongQuadrant(GamowLabError):
    """A refined root violates the decaying-state quadrant constraints."""


class CountMismatch(GamowLabError):
    """Argument-principle winding number disagrees with the found root count."""


class QuadratureNotConverged(GamowLabError):
    """A quadrature did not reach the requested accuracy.

    Carries the achieved error estimate in ``estimate``.
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class GridTooCoarse(GamowLabError):
    """Spatial grid too coarse for the requested operation."""


class WindowTooSmall(GamowLabError):
    """Fit window contains too few usable points."""


class WindowBeforeCrossover(GamowLabError):
    """Tail-fit window overlaps the exponential regime."""


class NoCrossing(GamowLabError):
    """Exponential and power-law branches do not intersect in the bracket."""
