"""Pseudo-spectral toolkit for the damped wave equation with an absorbing
power nonlinearity, u_tt - Lap u + u_t = -|u|^theta u, on periodic boxes.

Layers:
  grid      periodic grids, transforms of plain half-spectrum arrays,
            spectral derivatives, snapshots
  symbols   per-mode propagator of the damped linear equation, band kernels
  oracle    independent references (mode ODE, free wave, heat flow, RK4)
  solver    exact linear stepping and the semilinear Duhamel step
  analysis  norms, energy ledger, decay-rate fits, csv reports
  presets   canned experiments and the flat config schema
  cli       command line front end
"""

from .analysis import (EnergyLedger, decay_report, e0_norm, fit_decay_rate,
                       fit_exponential_rate, lp_norm, quantity_label,
                       spectral_l2_sq, weighted_profile)
from .grid import (Field, derivative_field, derivative_multiplier,
                   forward_transform, inverse_transform, make_grid,
                   read_snapshot, write_snapshot)
from .oracle import (dalembert, free_wave_multiplier, heat_reference,
                     mode_ode, mode_ode_series)
from .presets import (ExperimentPreset, builtin_presets, gaussian_bump,
                      preset_from_config, preset_to_config, run_bands,
                      run_experiment, run_linear, run_semilinear)
from .solver import (InstabilityError, SolverConfig, SolverState,
                     apply_nonlinearity, linear_solution, linear_step, solve,
                     state_from_fields)
from .symbols import (build_symbol_table, cutoff, green_band, green_hat,
                      green_hat_dt, smooth_step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
