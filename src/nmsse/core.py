"""Shared parameter and grid types for the collapse-dynamics library.

Everything downstream (kernels, propagator, oracle, ensemble) consumes the
two small records defined here.  Units are the caller's business: ``scaled``
means hbar = 1 conventions are expected, ``SI`` means kilograms, seconds,
meters.  The records never convert anything; the flag only documents intent
and selects CLI defaults.
"""

from __future__ import annotations

import math
import numbers
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
        k = _as_int(k, "prefix length", 2, self.n + 1, InvalidGridError)
        return TimeGrid(t_max=(k - 1) * self.dt, n=k)


def _as_real(x, name: str, sign: str = "", error=InvalidParameterError) -> float:
    """x as a float if a finite real, not a bool, of the sign asked; else error naming it."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
            and {"": True, "positive": x > 0, "non-negative": x >= 0}[sign]):
        raise error(f"{name} must be {sign + ' and ' if sign else ''}finite, got {x!r}")
    return float(x)


def _as_int(x, name: str, low: int, high: int | None = None, error=InvalidParameterError) -> int:
    """x as an int if an integer, not a bool, in [low, high) (no upper bound for
    high None); else error naming it."""
    if not (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and low <= x and (high is None or x < high)):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        # the sampler's key bound reads better as a power of two
        raise error(f"{name} must be an integer {span.replace(str(2 ** 64), '2**64')}, got {x!r}")
    return int(x)


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
        If m or hbar is not a positive finite real, lam not a non-negative
        one (a bool is neither), or unit_mode not one of "scaled" / "SI".
    """
    m = _as_real(m, "m", "positive")
    hbar = _as_real(hbar, "hbar", "positive")
    lam = _as_real(lam, "lambda", "non-negative")
    if unit_mode not in ("scaled", "SI"):
        raise InvalidParameterError(f"unit_mode must be 'scaled' or 'SI', got {unit_mode!r}")
    return PhysicalParams(m=m, hbar=hbar, lam=lam, unit_mode=unit_mode)


def _closed_form_constants(params: PhysicalParams) -> tuple[complex, complex, float]:
    """(mu, pref, half_sl) = (i m/(2 hbar), -i hbar sqrt(lam)/m, sqrt(lam)/2)
    of the closed forms.  The path-sum oracle and the collocation arbiter,
    one discrete system, derive their own on purpose to stay independent."""
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
    from exp directly rather than from repeated products, in place: the
    result is the only array of n besides the float places, which a real z
    reuses."""
    place = np.arange(n, dtype=float)
    place %= _scan_block(z, n)
    growth = np.multiply(place, z, out=place if np.isrealobj(z) else None)
    return np.exp(growth, out=growth)


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
    decay = np.arange(block + 1, dtype=np.result_type(z, float))
    decay *= -z
    np.exp(decay, out=decay)
    for b in range(0, n, block):
        part = y[..., b:b + block]
        if b:
            part[..., 0] += decay[1] * y[..., b - 1]
        np.cumsum(part, axis=-1, out=part)
        part *= decay[:part.shape[-1]]
    return y


# Iterative-refinement steps of _block_tridiag_solve.  For the collocation
# f and h at lambda = 2, gamma = 30, N = 2001 the first step moves the
# values by up to 1.8e-11 of their maximum and the second by 2.0e-15; a
# third would move them by 1.3e-16, the rounding of the residual.
_REFINE_STEPS = 2
# Rows per chunk of _block_residual.
_RESIDUAL_CHUNK = 128


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_i of blocks stored batch-last: (p, q, n) x (q, r, n)."""
    return np.einsum("pqn,qrn->prn", a, b)


def _block_tridiag_factor(lo, diag, up) -> list:
    """Block cyclic reduction of lo_i x_{i-1} + diag_i x_i + up_i x_{i+1}
    (blocks (b, b, n), see _block_tridiag_solve): each level eliminates the
    even rows of the current system from its odd rows, halving the system,
    until one row is left.  A level keeps the inverses of its even diagonal
    blocks and its lo and up, which _block_tridiag_apply needs to repeat the
    reduction on a new right-hand side."""
    levels = []
    b = len(diag)
    while True:
        n = diag.shape[-1]
        k, r = n // 2, (n - 1) // 2      # odd rows; those with a right neighbour
        inv = np.linalg.inv(diag[..., 0::2].transpose(2, 0, 1))
        inv = np.ascontiguousarray(inv.transpose(1, 2, 0))
        levels.append((inv, lo, up))
        if k == 0:
            return levels
        # even rows divided by their diagonal blocks: [lo_e | up_e] side by side
        offd = np.zeros((b, 2 * b, n - k), dtype=inv.dtype)
        offd[:, :b, 1:] = lo[..., 2::2]
        offd[:, b:, :k] = up[..., 0:2 * k:2]
        offd = _bmm(inv, offd)
        left = _bmm(lo[..., 1::2], offd[..., :k])
        right = _bmm(up[..., 1:2 * r:2], offd[..., 1:r + 1])
        diag = diag[..., 1::2] - left[:, b:]
        diag[..., :r] -= right[:, :b]
        lo = -left[:, :b]
        up = np.zeros_like(lo)
        up[..., :r] = -right[:, b:]


def _block_tridiag_apply(levels: list, y: np.ndarray) -> np.ndarray:
    """Overwrite y with the solution, given a factorization of
    _block_tridiag_factor: reduce y level by level as the rows were, then
    substitute back from the last row up.

    Row i of level L is row 2^L (i + 1) - 1 of the system, so the even rows
    of the levels partition it, and each level stores into its even rows of
    y: first the right-hand side divided by the diagonal blocks, then the
    solution.  A level reads its even rows of y before it overwrites them.
    """
    x = y
    for depth, (inv, lo, up) in enumerate(levels):
        n = y.shape[-1]
        k, r = n // 2, (n - 1) // 2
        w = x[..., 2 ** depth - 1::2 ** (depth + 1)]
        w[...] = _bmm(inv, y[..., 0::2])
        y = y[..., 1::2] - _bmm(lo[..., 1::2], w[..., :k])
        y[..., :r] -= _bmm(up[..., 1:2 * r:2], w[..., 1:r + 1])
    for depth, (inv, lo, up) in reversed(list(enumerate(levels))):
        rows = x[..., 2 ** depth - 1::2 ** depth]
        w, odd = rows[..., 0::2], rows[..., 1::2]
        k = odd.shape[-1]
        coupled = np.zeros_like(w)
        coupled[..., 1:] = _bmm(lo[..., 2::2], odd[..., :w.shape[-1] - 1])
        coupled[..., :k] += _bmm(up[..., 0:2 * k:2], odd)
        w -= _bmm(inv, coupled)
    return x


def _block_residual(lo, diag, up, x, y) -> np.ndarray:
    """y_i - lo_i x_{i-1} - diag_i x_i - up_i x_{i+1}, formed as
    y_i - (lo_i + diag_i + up_i) x_i - lo_i (x_{i-1} - x_i) - up_i (x_{i+1} - x_i).

    For a discretized differential operator the row sums cancel the large
    band entries exactly and the differences of a smooth x are small, so this
    keeps the digits that the plain products lose to cancellation.  It walks
    _RESIDUAL_CHUNK rows at a time, which bounds the temporaries: numpy
    copies or buffers a strided operand of a block product whole.
    """
    n = x.shape[-1]
    res = np.empty_like(y)
    for start in range(0, n, _RESIDUAL_CHUNK):
        stop = min(start + _RESIDUAL_CHUNK, n)
        # rows first..stop-1 have a left neighbour, start..last-1 a right one
        first, last = max(start, 1), min(stop, n - 1)
        rowsum = diag[..., start:stop].copy()
        rowsum[..., first - start:] += lo[..., first:stop]
        rowsum[..., :last - start] += up[..., start:last]
        part = y[..., start:stop] - _bmm(rowsum, x[..., start:stop])
        part[..., first - start:] -= _bmm(lo[..., first:stop],
                                          x[..., first - 1:stop - 1] - x[..., first:stop])
        part[..., :last - start] -= _bmm(up[..., start:last],
                                         x[..., start + 1:last + 1] - x[..., start:last])
        res[..., start:stop] = part
    return res


def _block_tridiag_solve(lo: np.ndarray, diag: np.ndarray, up: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Solve the block tridiagonal system lo_i x_{i-1} + diag_i x_i +
    up_i x_{i+1} = y_i, i < n, for b x b blocks and k right-hand sides.

    Arrays are stored batch-last: blocks (b, b, n), right-hand sides and the
    solution (b, k, n).  Block products then run along contiguous rows of n,
    which is several times faster than stacked 3x3 matmuls.  lo[..., 0] and
    up[..., -1] are not read.

    Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    627 (1970)) in O(n) work and O(log n) batched numpy calls, then
    _REFINE_STEPS steps of fixed-precision iterative refinement (Skeel, Math.
    Comp. 35, 817 (1980)), each from the O(n) block residual of
    _block_residual and reusing the factorization.  Pivoting happens only
    inside the blocks.  Raises np.linalg.LinAlgError on a singular pivot
    block.
    """
    levels = _block_tridiag_factor(lo, diag, up)
    x = _block_tridiag_apply(levels, y.copy())
    for _ in range(_REFINE_STEPS):
        x += _block_tridiag_apply(levels, _block_residual(lo, diag, up, x, y))
    return x


def make_grid(t_max: float, n: int) -> TimeGrid:
    """Build a uniform time grid with n nodes covering [0, t_max]."""
    return TimeGrid(t_max=_as_real(t_max, "t_max", "positive", InvalidGridError),
                    n=_as_int(n, "n", 2, error=InvalidGridError))
