"""Independent reference computations used to validate symbols and solver.

Nothing in this module reuses the closed-form symbol evaluation or the
production stepping code.  The mode ODE is integrated numerically with an
adaptive embedded Runge-Kutta method; the one-dimensional free-wave
formulas are evaluated through direct cardinal-function (band-limited)
interpolation sums that never call an FFT; the semilinear equation is
marched by classical RK4 on the full complex spectrum, with its own
wavenumbers, 2/3 mask and source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, inverse_transform

# scipy's explicit Runge-Kutta pairs, DOP853 included, refuse relative
# tolerances below 100 machine eps
_MIN_RTOL = 2.5e-14


@dataclass(frozen=True)
class OdeResult:
    """Value and time derivative of the mode ODE solution, with an error estimate."""

    value: float
    derivative: float
    est_error: float


def _integrate(xi_sq: float, times: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """Solve g'' + g' + xi_sq g = 0, g(0) = 0, g'(0) = 1, sampled at `times`."""
    # the package's only scipy use: other subcommands never load scipy
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return (y[1], -y[1] - xi_sq * y[0])

    sol = solve_ivp(rhs, (0.0, float(times[-1])), (0.0, 1.0), method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"mode ODE integration failed: {sol.message}")
    return sol.y


def mode_ode_series(xi_sq: float, times, tol: float = 1e-10):
    """Mode ODE solution at several times from a single integration.

    Returns (values, derivatives, est_errors) as arrays aligned with `times`.
    The error estimate is the difference between integrations at two
    tolerances; the returned values come from the finer one.
    """
    if xi_sq < 0:
        raise ValueError(f"xi_sq must be nonnegative, got {xi_sq}")
    # NaN fails the comparison; an infinite tol would leave the
    # integrator's step control unbounded, so it never returns
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise ValueError(f"tol must be finite and at least 1e-12, got {tol}")
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")

    values = np.zeros_like(times)
    derivs = np.ones_like(times)
    errors = np.zeros_like(times)
    positive = times > 0
    if np.any(positive):
        ts = times[positive]
        fine_rtol = max(tol / 200.0, _MIN_RTOL)
        coarse_rtol = max(tol / 10.0, 10 * _MIN_RTOL)
        fine = _integrate(xi_sq, ts, fine_rtol, fine_rtol * 1e-2)
        coarse = _integrate(xi_sq, ts, coarse_rtol, coarse_rtol * 1e-2)
        values[positive] = fine[0]
        derivs[positive] = fine[1]
        errors[positive] = np.max(np.abs(fine - coarse), axis=0)
    return values, derivs, errors


def mode_ode(xi_sq: float, t: float, tol: float = 1e-10) -> OdeResult:
    """Fundamental solution of one Fourier mode of the damped wave operator.

    Integrates g'' + g' + xi_sq g = 0 with g(0) = 0, g'(0) = 1 up to time t.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return OdeResult(0.0, 1.0, 0.0)
    values, derivs, errors = mode_ode_series(xi_sq, [t], tol=tol)
    return OdeResult(float(values[0]), float(derivs[0]), float(errors[0]))


def _cardinal_weights(grid, args: np.ndarray) -> np.ndarray:
    """Periodic cardinal function of the even-N trigonometric interpolant.

    tau(s) = (1/N) [1 + 2 sum_{k=1}^{N/2-1} cos(k pi s / L) + cos(N pi s / (2L))]
    equals 1 at s = 0 and 0 at every other lattice offset.
    """
    n = grid.points_per_dim
    half = grid.half_width
    k = np.arange(1, n // 2)
    phases = np.outer(args, k * (np.pi / half))
    out = 1.0 + 2.0 * np.cos(phases).sum(axis=1)
    out += np.cos(args * (n * np.pi / (2.0 * half)))
    return out / n


def _cardinal_antiderivative(grid, args: np.ndarray) -> np.ndarray:
    """Antiderivative of the cardinal function, T(s) = int_0^s tau."""
    n = grid.points_per_dim
    half = grid.half_width
    k = np.arange(1, n // 2)
    freqs = k * (np.pi / half)
    phases = np.outer(args, freqs)
    out = args + 2.0 * (np.sin(phases) / freqs).sum(axis=1)
    nyq = n * np.pi / (2.0 * half)
    out += np.sin(args * nyq) / nyq
    return out / n


def dalembert(data: Field, t: float) -> tuple[Field, Field]:
    """One-dimensional free-wave evolution of initial velocity data.

    Returns the pair (half the integral of data over [x - t, x + t],
    half the sum data(x - t) + data(x + t)), both sampled on the grid.
    Off-grid points are evaluated with the exact trigonometric interpolant
    via direct summation.  Requires t < half_width / 2 so characteristics
    do not wrap around the periodic box.
    """
    grid = data.grid
    if grid.n_dims != 1:
        raise ValueError("dalembert is defined for one-dimensional grids")
    if not 0 <= t < grid.half_width / 2:
        raise ValueError(
            f"t must lie in [0, half_width/2) = [0, {grid.half_width / 2}), got {t}")
    n = grid.points_per_dim
    h = data.values

    # offsets x_i - x_j, reduced mod the period for the periodic tau
    d = np.arange(n) * grid.dx
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    tau_plus = _cardinal_weights(grid, d + t)
    tau_minus = _cardinal_weights(grid, d - t)
    average = 0.5 * (tau_minus[idx] @ h + tau_plus[idx] @ h)

    # T is not periodic (it carries a linear term), so use true offsets
    offsets = np.arange(-(n - 1), n) * grid.dx
    t_plus = _cardinal_antiderivative(grid, offsets + t)
    t_minus = _cardinal_antiderivative(grid, offsets - t)
    window = t_plus - t_minus
    oidx = (np.arange(n)[:, None] - np.arange(n)[None, :]) + (n - 1)
    integral = 0.5 * (window[oidx] @ h)

    return Field(grid, integral), Field(grid, average)


def free_wave_multiplier(grid, t: float) -> np.ndarray:
    """Spectral multiplier sin(|xi| t) / |xi| of the free wave, t at xi = 0."""
    r = grid.freq_radius
    out = np.empty_like(r)
    nonzero = r > 0
    out[nonzero] = np.sin(r[nonzero] * t) / r[nonzero]
    out[~nonzero] = t
    return out


def heat_reference(grid: Grid, coeffs: np.ndarray, t: float) -> Field:
    """Exact periodic heat evolution exp(t Laplacian) of the half spectrum
    coeffs on grid, each mode times exp(-|xi|^2 t), in fresh arrays."""
    if not 0 <= t < math.inf:  # nan fails both comparisons
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    xi_sq, index = grid.freq_levels
    return inverse_transform(grid, coeffs * np.exp(-xi_sq * t)[index])


def rk4_reference(u0: Field, u1: Field, theta: int, dt: float, steps: int,
                  sign: int = -1) -> np.ndarray:
    """u after `steps` classical RK4 steps of size dt of the full fftn
    spectrum of u_tt - Lap u + u_t = sign |u|^theta u from (u0, u1), the
    source dealiased by the 2/3 rule (|j| <= N/3 on each axis) exactly
    when theta >= 2, as in the solver's discretisation."""
    grid = u0.grid
    if u1.grid != grid:
        raise ValueError("u0 and u1 must share a grid")
    n = grid.points_per_dim
    modes = np.meshgrid(*(np.fft.fftfreq(n, 1.0 / n),) * grid.n_dims,
                        indexing="ij", sparse=True)
    xi_sq = sum((np.pi / grid.half_width * j) ** 2 for j in modes)
    mask = math.prod(np.abs(j) <= n / 3.0 for j in modes) if theta >= 2 else 1

    def rhs(u_hat, v_hat):
        u = np.fft.ifftn(u_hat).real
        f_hat = np.fft.fftn(sign * np.abs(u) ** theta * u) * mask
        return v_hat, -xi_sq * u_hat - v_hat + f_hat

    y = (np.fft.fftn(u0.values), np.fft.fftn(u1.values))
    for _ in range(steps):
        k1 = rhs(*y)
        k2 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
        k3 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
        k4 = rhs(*(a + dt * k for a, k in zip(y, k3)))
        y = tuple(a + dt / 6.0 * (p + 2 * q + 2 * r + s)
                  for a, p, q, r, s in zip(y, k1, k2, k3, k4))
    return np.fft.ifftn(y[0]).real
