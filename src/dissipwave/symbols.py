"""Fourier symbols of the damped wave Green function and band kernels.

Each Fourier mode of the linear equation u_tt + u_t - Lap u = 0 satisfies
g'' + g' + |xi|^2 g = 0.  The fundamental solution with g(0) = 0, g'(0) = 1
has the two characteristic exponents mu_pm = (-1 pm sqrt(1 - 4 |xi|^2)) / 2,
which collide at the branch point |xi| = 1/2.  Evaluation switches between
exponential, trigonometric, and Taylor-series forms so that every branch is
stable, including a neighborhood of the collision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, forward_transform, inverse_transform

# The series argument is w = (1 - 4 xi_sq) t^2 / 4; |w| <= W_SERIES keeps the
# degree-3 Taylor truncation of sinh(sqrt(w))/sqrt(w) and cosh(sqrt(w))
# below 1e-22 while avoiding the 0/0 cancellation of the closed forms.
# Equivalent to |sqrt(w)| <= 1e-2.
W_SERIES = 1e-4

MIN_TRANSITION_MODES = 8

# The three-band smooth partition of the frequency space: band 1 is
# identically 1 on |xi| < EPS and 0 beyond 2 EPS, band 3 identically 1 on
# |xi| > OUTER_RADIUS and 0 below OUTER_RADIUS - 1, and band 2 is the middle
# remainder.  The two transitions do not overlap (2 EPS < OUTER_RADIUS - 1).
EPS = 0.45
OUTER_RADIUS = 2.0
_LOW = (EPS, 2 * EPS)
_HIGH = (OUTER_RADIUS - 1, OUTER_RADIUS)
TRANSITIONS = {1: (_LOW,), 2: (_LOW, _HIGH), 3: (_HIGH,)}


def green_pair(xi_sq, t):
    """Green function symbol G, the mode solution with g(0) = 0,
    g'(0) = 1, and its time derivative G_t, from one branch split.

    Vectorized over broadcastable xi_sq >= 0 and finite t >= 0; each
    exponential, sine and cosine is computed once and shared by G and G_t.
    A scalar t stays a scalar: no array of it is broadcast or gathered per
    branch.  The series and oscillatory branches, which take nearly every
    level of a lattice between them, work in place, and each working
    array is dropped once read, so on n levels at one t the call holds
    at most about seven arrays of n floats (m, w or G and G_t, the branch
    masks and the four of the branch at work).
    """
    scalar = np.ndim(xi_sq) == 0 and np.ndim(t) == 0
    xi_sq = np.array(xi_sq, dtype=np.float64, copy=None, ndmin=1)
    t = np.asarray(t, dtype=np.float64)
    # nan fails every comparison, so it is refused with the negatives;
    # no branch would take it, and its G and G_t would be left unset
    if not np.all(xi_sq >= 0):
        raise ValueError("xi_sq must be nonnegative")
    # nan fails both comparisons; an infinite t would give inf * 0
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError("t must be finite and nonnegative")
    if t.ndim:
        xi_sq, t = np.broadcast_arrays(xi_sq, t)
    else:
        t = t[()]

    def on(mask):
        """t on the modes of mask; a scalar t as it is."""
        return t[mask] if np.ndim(t) else t

    m = 4.0 * xi_sq
    np.subtract(1.0, m, out=m)
    # past t ~ 1e154 w overflows to +-inf (m = 0 still gives 0), which
    # lies beyond W_SERIES as the exact w does, so the branch is the same
    with np.errstate(over="ignore"):
        w = m * t
        w *= t
        w /= 4.0
    series = np.abs(w) <= W_SERIES
    ws = w[series]
    del w
    over = m > 0
    over &= ~series
    under = m < 0
    under &= ~series
    g = np.empty_like(m)
    g_t = np.empty_like(m)

    if ws.size:
        ts = on(series)
        decay = np.exp(-0.5 * ts)
        # sinh(sqrt(w))/sqrt(w) = 1 + w/6 + w^2/120 + w^3/5040 + O(w^4)
        sinhc = _nested_series(ws, (6.0, 20.0, 42.0))
        # cosh(sqrt(w)) = 1 + w/2 + w^2/24 + w^3/720 + O(w^4)
        cosh = _nested_series(ws, (2.0, 12.0, 30.0))
        cosh -= 0.5 * ts * sinhc
        cosh *= decay
        g_t[series] = cosh
        sinhc *= ts * decay
        g[series] = sinhc
    if np.any(over):
        # both exponents are nonpositive, so no overflow; |xi| < 1/2 is a
        # few levels of a lattice's
        root = np.sqrt(m[over])
        to = on(over)
        mu_p = 0.5 * (root - 1.0)
        mu_m = -0.5 * (root + 1.0)
        e_p = np.exp(mu_p * to)
        e_m = np.exp(mu_m * to)
        g[over] = (e_p - e_m) / root
        g_t[over] = (mu_p * e_p - mu_m * e_m) / root
    if np.any(under):
        root = m[under]
        del m
        np.negative(root, out=root)
        np.sqrt(root, out=root)
        tu = on(under)
        decay = np.exp(-0.5 * tu)
        half_angle = 0.5 * root
        half_angle *= tu
        sine = np.sin(half_angle)
        cosine = np.cos(half_angle, out=half_angle)
        cosine -= sine / root
        cosine *= decay
        g_t[under] = cosine
        sine *= 2.0 * decay
        sine /= root
        g[under] = sine
    if scalar:
        return float(g[0]), float(g_t[0])
    return g, g_t


def _nested_series(w: np.ndarray, divisors: tuple[float, float, float]
                   ) -> np.ndarray:
    """1 + (w/a) (1 + (w/b) (1 + w/c)) for divisors (a, b, c), in one
    fresh array, with the operations of that expression in its order."""
    a, b, c = divisors
    out = w / c
    out += 1.0
    out *= w / b
    out += 1.0
    out *= w / a
    out += 1.0
    return out


def green_hat(xi_sq, t):
    """Green function symbol G (see green_pair)."""
    return green_pair(xi_sq, t)[0]


def green_hat_dt(xi_sq, t):
    """Time derivative of the Green function symbol.  Equals 1 at t = 0."""
    return green_pair(xi_sq, t)[1]


@dataclass(frozen=True)
class SymbolTable:
    """Exact per-mode propagator of the linear flow over one time increment.

    (u_hat, v_hat) advance as [[uu, uv], [vu, vv]] (u_hat, v_hat) with
    uu = G_t + G, uv = G, vu = G_tt + G_t and vv = G_t at the increment, where
    G_tt = -G_t - |xi|^2 G is the mode ODE identity.  The entries form a
    semigroup in the increment.
    """

    grid: Grid
    uu: np.ndarray
    uv: np.ndarray
    vu: np.ndarray
    vv: np.ndarray

    def apply(self, u_hat: np.ndarray, v_hat: np.ndarray,
              out: tuple[np.ndarray, ...] | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """(u_hat, v_hat) advanced by the increment, into out = (u_out,
        v_out, uv_term, vu_term) when given, else into fresh arrays.  Both
        cross terms, uv v_hat and vu u_hat, are formed before either row
        is written, so the rows may be u_hat and v_hat themselves."""
        if out is None:
            dtype = np.result_type(self.uu, u_hat, v_hat)
            out = tuple(np.empty(self.uu.shape, dtype) for _ in range(4))
        u_out, v_out, uv_term, vu_term = out
        np.multiply(self.uv, v_hat, out=uv_term)
        np.multiply(self.vu, u_hat, out=vu_term)
        np.multiply(self.uu, u_hat, out=u_out)
        u_out += uv_term
        np.multiply(self.vv, v_hat, out=v_out)
        v_out += vu_term
        return u_out, v_out


def propagator_levels(xi_sq: np.ndarray,
                      delta: float) -> tuple[np.ndarray, ...]:
    """The SymbolTable entries (uu, uv, vu, vv) at time increment delta,
    one value per |xi|^2 in xi_sq (green_pair rejects a bad delta)."""
    g, g_t = green_pair(xi_sq, delta)
    vu = np.negative(g_t)  # G_tt = -G_t - |xi|^2 G, then vu = G_tt + G_t
    vu -= xi_sq * g
    vu += g_t
    return g_t + g, g, vu, g_t


def build_symbol_table(grid: Grid, delta: float) -> SymbolTable:
    """Tabulate the propagator at time increment delta over the stored half
    spectrum of the frequency lattice, each entry once per |xi|^2 level."""
    xi_sq, index = grid.freq_levels
    return SymbolTable(grid, *(entry[index]
                               for entry in propagator_levels(xi_sq, delta)))


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly increasing between."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s >= 1] = 1.0
    interior = (s > 0) & (s < 1)
    if np.any(interior):
        si = s[interior]
        a = np.exp(-1.0 / si)
        b = np.exp(-1.0 / (1.0 - si))
        out[interior] = a / (a + b)
    return out


def cutoff(band: int, radius):
    """Smooth radial cutoff chi_band evaluated at |xi| = radius.

    The three cutoffs form an exact partition of unity by construction.
    """
    radius = np.asarray(radius, dtype=np.float64)
    if np.any(radius < 0):
        raise ValueError("radius must be nonnegative")
    low = 1.0 - smooth_step((radius - EPS) / EPS)
    high = smooth_step(radius - (OUTER_RADIUS - 1.0))
    if band == 1:
        return low
    if band == 3:
        return high
    if band == 2:
        return 1.0 - low - high
    raise ValueError(f"band must be 1, 2 or 3, got {band}")


def _delta_spectrum(grid: Grid) -> np.ndarray:
    """Transform of the discrete delta at the origin, scaled to unit mass;
    a fresh array, which a run over many times forms once (green_band's
    delta_hat)."""
    values = np.zeros(grid.shape)
    values[grid.origin_index] = 1.0 / grid.cell_volume
    return forward_transform(Field(grid, values))


def _shell_mode_count(grid: Grid, lo: float, hi: float) -> int:
    """Lattice modes with lo < |xi| < hi on the full lattice: each stored
    half-spectrum mode counts with its Hermitian multiplicity."""
    radius = grid.freq_radius
    inside = (radius > lo) & (radius < hi)
    return int(np.sum(inside * grid.mode_multiplicity))


def _check_band_resolution(band: int, grid: Grid) -> None:
    if band not in TRANSITIONS:
        raise ValueError(f"band must be 1, 2 or 3, got {band}")
    for lo, hi in TRANSITIONS[band]:
        if hi > grid.nyquist_freq:
            raise ValueError(
                f"band {band} transition ({lo}, {hi}) extends beyond the "
                f"lattice Nyquist frequency {grid.nyquist_freq:.4g}")
        count = _shell_mode_count(grid, lo, hi)
        if count < MIN_TRANSITION_MODES:
            raise ValueError(
                f"band {band} transition ({lo}, {hi}) is sampled by only "
                f"{count} lattice modes; need at least {MIN_TRANSITION_MODES}")


def green_band(band: int, grid: Grid, t: float,
               delta_hat: np.ndarray | None = None) -> Field:
    """Band kernel: inverse transform of chi_band(|xi|) * green_hat(xi, t).

    The kernel is centered at x = 0.  delta_hat is the grid's
    _delta_spectrum, formed here when None; it is read, not written.
    Raises if the grid does not resolve the cutoff transition zones.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    _check_band_resolution(band, grid)
    if delta_hat is None:
        delta_hat = _delta_spectrum(grid)
    xi_sq, index = grid.freq_levels
    mult = cutoff(band, np.sqrt(xi_sq)) * green_hat(xi_sq, t)
    product = delta_hat * mult[index]
    return inverse_transform(grid, product, work=product)
