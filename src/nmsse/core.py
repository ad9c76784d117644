"""Shared parameter and grid types for the collapse-dynamics library.

Everything downstream (kernels, propagator, oracle, ensemble) consumes the
two small records defined here.  Units are the caller's business: ``scaled``
means hbar = 1 conventions are expected, ``SI`` means kilograms, seconds,
meters.  The records never convert anything; the flag only documents intent
and selects CLI defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Reduced Planck constant in J*s, the default hbar for SI-mode configs.
HBAR_SI = 1.0545718e-34


class InvalidParameterError(ValueError):
    """A physical parameter is out of domain (non-positive mass, etc.)."""


class InvalidGridError(ValueError):
    """A time grid request is malformed (bad node count, bad horizon)."""


@dataclass(frozen=True)
class PhysicalParams:
    """Problem constants for one run.

    Attributes
    ----------
    m : float
        Particle mass.
    hbar : float
        Reduced Planck constant in the same unit system.
    lam : float
        Collapse coupling strength (the ``lambda`` config key).  The kernel
        equations see it through ``omega_collapse``, see below.
    unit_mode : str
        Either ``"scaled"`` or ``"SI"``; documentation only.
    """

    m: float
    hbar: float
    lam: float
    unit_mode: str

    @property
    def omega_collapse_sq(self) -> float:
        """Square of the frequency that enters the kernel quartic.

        The quartic reduction of the memory boundary-value problem carries
        ``2*hbar*lam/m``; both the analytic kernels
        and the independent numeric solver agree on this value, so it is
        the one used everywhere computations happen.
        """
        return 2.0 * self.hbar * self.lam / self.m

    @property
    def omega_collapse(self) -> float:
        return math.sqrt(self.omega_collapse_sq)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max] with n nodes (n-1 steps).

    ``dt`` is exact: nodes are ``i * t_max / (n - 1)`` computed in a single
    rounding, so grids built from equal inputs are bitwise equal.
    """

    t_max: float
    n: int

    @property
    def dt(self) -> float:
        return self.t_max / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.t_max / (self.n - 1))

    def prefix(self, k: int) -> "TimeGrid":
        """Grid consisting of the first k nodes (horizon node k-1)."""
        if not 2 <= k <= self.n:
            raise InvalidGridError(f"prefix length {k} outside [2, {self.n}]")
        return TimeGrid(t_max=(k - 1) * self.dt, n=k)


def make_params(
    m: float,
    hbar: float,
    lam: float,
    unit_mode: str = "scaled",
) -> PhysicalParams:
    """Validate and freeze the physical constants for a run.

    Raises
    ------
    InvalidParameterError
        If any of m, hbar, lam is not a positive finite number, or
        unit_mode is not one of "scaled" / "SI".
    """
    for name, val in (("m", m), ("hbar", hbar)):
        if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
            raise InvalidParameterError(f"{name} must be positive and finite, got {val!r}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise InvalidParameterError(f"lambda must be non-negative and finite, got {lam!r}")
    if unit_mode not in ("scaled", "SI"):
        raise InvalidParameterError(f"unit_mode must be 'scaled' or 'SI', got {unit_mode!r}")
    return PhysicalParams(m=float(m), hbar=float(hbar), lam=float(lam), unit_mode=unit_mode)


def _closed_form_constants(params: PhysicalParams) -> tuple[complex, complex, float]:
    """(mu, pref, half_sl) = (i m/(2 hbar), -i hbar sqrt(lam)/m, sqrt(lam)/2)
    of the closed forms.  The path-sum oracle and the collocation arbiter
    derive their own on purpose, to stay independent routes."""
    sqrt_lam = math.sqrt(params.lam)
    return (1j * params.m / (2.0 * params.hbar),
            -1j * params.hbar * sqrt_lam / params.m,
            sqrt_lam / 2.0)


# Largest growth |e^{z i}| a block of _decay_scan may reach (e^40 ~ 2e17).
_SCAN_GROWTH = 40.0


def _scan_block(z, n: int) -> int:
    """Nodes per block of a _decay_scan at rate z (Re z >= 0) over n nodes."""
    rate = z.real
    return n if rate * n <= _SCAN_GROWTH else max(1, int(_SCAN_GROWTH / rate))


def _scan_growth(z, n: int) -> np.ndarray:
    """Block-local growth e^{z i_j} of the n nodes of a _decay_scan at rate z,
    with i_j = j mod block the node's place in its block.  The powers come
    from exp directly rather than from repeated products."""
    return np.exp(z * (np.arange(n) % _scan_block(z, n)))


def _decay_scan(z, y: np.ndarray) -> np.ndarray:
    """y_j <- e^{-z} y_{j-1} + x_j along the last axis, in place (Re z >= 0),
    for sources given grown: on entry y_j = x_j e^{z i_j} (_scan_growth).

    Each block of the recursion is one cumulative sum,
    y_{b+i} = e^{-z i} (e^{-z} y_{b-1} + sum_{m<=i} e^{z m} x_{b+m}): the
    carry e^{-z} y_{b-1} joins the block's first source, whose growth is 1.
    The block length keeps |e^{z i}| <= e^_SCAN_GROWTH, so nothing overflows
    and the rounding stays that of a cumulative sum.  Real z on a real y
    scans in real arithmetic.  Every row is scanned by the same operations,
    so a row's result does not depend on the others.
    """
    n = y.shape[-1]
    block = _scan_block(z, n)
    decay = np.exp(-z * np.arange(block + 1))
    for b in range(0, n, block):
        part = y[..., b:b + block]
        if b:
            part[..., 0] += decay[1] * y[..., b - 1]
        np.cumsum(part, axis=-1, out=part)
        part *= decay[:part.shape[-1]]
    return y


def make_grid(t_max: float, n: int) -> TimeGrid:
    """Build a uniform time grid with n nodes covering [0, t_max]."""
    if not (isinstance(t_max, (int, float)) and math.isfinite(t_max) and t_max > 0):
        raise InvalidGridError(f"t_max must be positive and finite, got {t_max!r}")
    if not (isinstance(n, int) and n >= 2):
        raise InvalidGridError(f"n must be an integer >= 2, got {n!r}")
    return TimeGrid(t_max=float(t_max), n=n)
