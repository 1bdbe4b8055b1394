"""The half-spectrum (rfftn) solver against a full complex fftn reference.

The reference below stores every array on the full frequency lattice and
steps it with np.fft.fftn / np.fft.ifftn, reusing only the closed-form
scalar symbols; the production solver stores the half spectrum.  Both
must produce the same trajectories and the same energy ledger.
"""

import math
import warnings

import numpy as np
import pytest

from dissipwave import (EnergyLedger, ExperimentPreset, Field, SolverConfig,
                        forward_transform, gaussian_bump, make_grid,
                        run_linear, solve, spectral_l2_sq, state_from_fields)
from dissipwave.analysis import parseval_weight, sobolev_weight
from dissipwave.solver import u_field
from dissipwave.symbols import green_hat, green_hat_dt

STEPS = 20
REL_TOL = 1e-13


def _full_freq_sq(grid):
    f = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.dx)
    out = np.zeros(grid.shape)
    for axis in np.meshgrid(*(f,) * grid.n_dims, indexing="ij", sparse=True):
        out = out + axis * axis
    return out


def _full_dealias_mask(grid):
    n = grid.points_per_dim
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0
    mask = np.ones(grid.shape, dtype=bool)
    for axis in np.meshgrid(*(keep,) * grid.n_dims, indexing="ij",
                            sparse=True):
        mask = mask & axis
    return mask.astype(np.float64)


class FullReference:
    """Full-lattice complex stepping of the same Duhamel step."""

    def __init__(self, grid, config):
        self.grid, self.config = grid, config
        dt = config.dt
        self.xi_sq = xi_sq = _full_freq_sq(grid)
        self.g = green_hat(xi_sq, dt)
        self.g_t = green_hat_dt(xi_sq, dt)
        self.g_tt = -self.g_t - xi_sq * self.g
        self.mask = _full_dealias_mask(grid) if config.theta >= 2 else 1.0
        # exponential Adams-Bashforth 3: the weights of F_n, F_{n-1},
        # F_{n-2}, quadratic Lagrange basis through s/dt = 0, -1, -2
        nodes, weights = np.polynomial.legendre.leggauss(8)
        self.wu = [np.zeros(grid.shape) for _ in range(3)]
        self.wv = [np.zeros(grid.shape) for _ in range(3)]
        for s, w in zip(0.5 * dt * (nodes + 1.0), 0.5 * dt * weights):
            ker, ker_t = green_hat(xi_sq, dt - s), green_hat_dt(xi_sq, dt - s)
            tau = s / dt
            basis = ((tau + 1) * (tau + 2) / 2, -tau * (tau + 2),
                     tau * (tau + 1) / 2)
            for wu, wv, b in zip(self.wu, self.wv, basis):
                wu += w * b * ker
                wv += w * b * ker_t
        self.history = None

    def source(self, u_hat):
        u = np.fft.ifftn(u_hat).real
        f = self.config.nonlin_sign * np.abs(u) ** self.config.theta * u
        return np.fft.fftn(f) * self.mask

    def duhamel(self, u_hat, v_hat):
        g, g_t, g_tt = self.g, self.g_t, self.g_tt
        f0 = self.source(u_hat)
        if self.history is None:
            # Taylor seed from the exact source rate sign (theta+1)|u|^theta u_t
            u, u_t = np.fft.ifftn(u_hat).real, np.fft.ifftn(v_hat).real
            theta = self.config.theta
            rate = np.fft.fftn(self.config.nonlin_sign * (theta + 1)
                               * np.abs(u) ** theta * u_t) * self.mask
            dt = self.config.dt
            self.history = (f0 - dt * rate, f0 - 2 * dt * rate)
        sources = (f0, *self.history)
        self.history = (f0, self.history[0])
        u_new = (g_t + g) * u_hat + g * v_hat
        v_new = (g_tt + g_t) * u_hat + g_t * v_hat
        for f, wu, wv in zip(sources, self.wu, self.wv):
            u_new = u_new + wu * f
            v_new = v_new + wv * f
        return u_new, v_new

    def energy(self, u_hat, v_hat):
        grid = self.grid
        factor = grid.cell_volume / grid.mode_count
        kinetic = 0.5 * np.sum(np.abs(v_hat) ** 2) * factor
        gradient = 0.5 * np.sum(np.abs(u_hat) ** 2 * self.xi_sq) * factor
        u = np.fft.ifftn(u_hat).real
        q = self.config.theta + 2
        potential = np.sum(np.abs(u) ** q) * grid.cell_volume / q
        return kinetic + gradient + potential, 2.0 * kinetic

    def run(self, u0, u1):
        u_hat, v_hat = np.fft.fftn(u0.values), np.fft.fftn(u1.values)
        energy, rate = self.energy(u_hat, v_hat)
        energies, rates = [energy], [rate]
        for _ in range(STEPS):
            u_hat, v_hat = self.duhamel(u_hat, v_hat)
            energy, rate = self.energy(u_hat, v_hat)
            energies.append(energy)
            rates.append(rate)
        return (np.fft.ifftn(u_hat).real, np.array(energies),
                _cumulative_quintic(rates, self.config.dt))


def _cumulative_quintic(f, dt):
    """Cumulative integral of equally spaced samples f (at least 6), 0 at
    the first.

    Interval i integrates the quintic through the samples j .. j+5 with
    j = i - 2 clamped to [0, len(f) - 6], so the two intervals at each end
    take a stencil shifted inward.  In units of dt/1440 the weights are
    (11, -93, 802, 802, -93, 11) inside, (475, 1427, -798, 482, -173, 27)
    and (-27, 637, 1022, -258, 77, -11) for the first and second interval,
    mirrored for the last and second to last.
    """
    interior = (11, -93, 802, 802, -93, 11)
    first = (475, 1427, -798, 482, -173, 27)
    second = (-27, 637, 1022, -258, 77, -11)
    by_offset = (first, second, interior, second[::-1], first[::-1])
    n = len(f) - 1
    pieces = np.empty(n)
    for i in range(n):
        j = min(max(i - 2, 0), n - 5)
        pieces[i] = dt / 1440.0 * np.dot(by_offset[i - j], f[j:j + 6])
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


# each id ends in the name of the step the reference mirrors
@pytest.mark.parametrize("n_dims,points,half_width,theta", [
    pytest.param(*case, id="-".join(map(str, case)) + "-exponential_duhamel")
    for case in [(1, 64, 8.0, 3), (2, 32, 8.0, 2), (3, 16, 6.0, 2)]])
def test_half_spectrum_matches_full_reference(n_dims, points, half_width,
                                              theta):
    grid = make_grid(n_dims, points, half_width)
    u0 = gaussian_bump(grid, 0.8, 1.2)
    u1 = gaussian_bump(grid, 0.3, 1.5)
    config = SolverConfig(theta=theta, dt=0.05, t_final=STEPS * 0.05)
    ledger = EnergyLedger(sobolev_index=1)
    final = solve(state_from_fields(u0, u1), config, ledger=ledger)
    ref_u, ref_energy, ref_integral = FullReference(grid, config).run(u0, u1)
    # the source moves u by far more than the tolerance over the run
    assert _rel(u_field(final).values, ref_u) <= REL_TOL
    assert _rel(ledger.energy, ref_energy) <= REL_TOL
    assert _rel(ledger.dissipation_integral, ref_integral) <= REL_TOL


@pytest.mark.parametrize("n_dims,points", [(1, 64), (2, 16), (3, 16)])
def test_parseval_weight_counts_conjugate_partners(n_dims, points, rng):
    grid = make_grid(n_dims, points, 4.0)
    f = Field(grid, rng.standard_normal(grid.shape))
    direct = float(np.sum(f.values ** 2)) * grid.cell_volume
    coeffs = forward_transform(f)
    assert spectral_l2_sq(grid, coeffs) == pytest.approx(direct, rel=1e-12)
    full = np.fft.fftn(f.values)
    full_h1 = float(np.sum(np.abs(full) ** 2 * (1.0 + _full_freq_sq(grid)))) \
        * grid.cell_volume / grid.mode_count
    half_h1 = float(np.sum(np.abs(coeffs) ** 2 * sobolev_weight(grid, 1)))
    assert half_h1 == pytest.approx(full_h1, rel=1e-12)
    weight = np.broadcast_to(parseval_weight(grid), grid.spectral_shape)
    assert weight.sum() == pytest.approx(grid.cell_volume, rel=1e-14)


def test_solver_and_linear_runner_raise_no_fft_warnings():
    grid = make_grid(2, 16, 4.0)
    u0 = gaussian_bump(grid, 0.5, 1.0)
    config = SolverConfig(theta=2, dt=0.05, t_final=0.2,
                          snapshot_times=(0.0, 0.2))
    preset = ExperimentPreset(name="lin-tiny", kind="linear", n_dims=2,
                              grid_points=16, half_width=4.0, t_final=2.0,
                              snapshot_times=(0.5, 1.0, 2.0),
                              reports=((math.inf, 1, 0), (math.inf, 0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(state_from_fields(u0, Field(grid, np.zeros(grid.shape))),
              config, observer=lambda t, s: u_field(s),
              ledger=EnergyLedger(sobolev_index=1))
        run = run_linear(preset)
    assert all(len(times) == 3 for times, _ in run.series.values())


def test_state_u_is_computed_once():
    grid = make_grid(1, 64, 8.0)
    state = state_from_fields(gaussian_bump(grid, 0.5, 1.0),
                              Field(grid, np.zeros(grid.shape)))
    assert state.u is state.u
    assert np.max(np.abs(state.u - gaussian_bump(grid, 0.5, 1.0).values)) \
        < 1e-15
