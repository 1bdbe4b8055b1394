#!/usr/bin/env python3
"""Time-step refinement study of the solver and of the RK4 oracle.

Marches a fixed one-dimensional semilinear problem at a ladder of step
sizes, with the solver's exponential Duhamel step (solve) and with the
classical RK4 reference march (oracle.rk4_reference), measures each one's
sup-norm error against a much finer run of itself, and prints the
observed order between consecutive rungs.

Usage: python3 scripts/convergence_study.py [--theta 3] [--t-final 1.0]
"""

import argparse

import numpy as np

from dissipwave import (SolverConfig, gaussian_bump, make_grid, solve,
                        state_from_fields)
from dissipwave.grid import Field
from dissipwave.oracle import rk4_reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=int, default=3)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=128)
    parser.add_argument("--half-width", type=float, default=16.0)
    args = parser.parse_args()

    grid = make_grid(1, args.points, args.half_width)
    u0 = gaussian_bump(grid, 1.0, 1.0)
    u1 = Field(grid, np.zeros(grid.shape))
    start = state_from_fields(u0, u1)
    dts = [args.t_final / k for k in (10, 20, 40, 80)]
    ref_dt = args.t_final / 1280

    def duhamel(dt: float) -> np.ndarray:
        cfg = SolverConfig(theta=args.theta, dt=dt, t_final=args.t_final)
        return solve(start, cfg).u

    def rk4(dt: float) -> np.ndarray:
        return rk4_reference(u0, u1, args.theta, dt, round(args.t_final / dt))

    for name, run in (("solve", duhamel), ("oracle.rk4_reference", rk4)):
        ref = run(ref_dt)
        print(f"\n{name} (reference dt = {ref_dt:g}):")
        print(f"  {'dt':>10s} {'sup error':>12s} {'order':>7s}")
        prev = None
        for dt in dts:
            err = float(np.max(np.abs(run(dt) - ref)))
            order = f"{np.log2(prev / err):7.3f}" if prev else "      -"
            print(f"  {dt:10.5f} {err:12.4e} {order}")
            prev = err


if __name__ == "__main__":
    main()
