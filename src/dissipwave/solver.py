"""Time integration of u_tt - Lap u + u_t = -|u|^theta u in Fourier space.

The linear flow is applied exactly: a symbols.SymbolTable holds the
per-mode propagator over one increment, and linear_step only multiplies
and adds with it.  A LinearFlow evaluates the flow from one start state
at one time after another into spectra it allocates once, the route of
a linear run's snapshots; linear_solution(state, t) is one evaluation
of a LinearFlow of its own.  The one semilinear
step, step_semilinear, is a third-order exponential Adams-Bashforth
integrator: the Duhamel integral takes the source as the quadratic
through its spectra at the last three steps, with per-mode weights from
the same symbols.green_pair evaluation.  A step makes two half-size
transforms, the source at u_n and the new u; the first seeds the history
from the Taylor line F_0 + t F_t through the data, with the exact source
rate F_t.  Its independent RK4 check is oracle.rk4_reference.

The source history lives only on the box of modes the 2/3 rule keeps
(every mode for theta = 1), |j| <= m = N // 3 on every axis: 2^(n-1)
slabs of the stored half spectrum, held as one contiguous box.  The
Adams-Bashforth products run on that box alone, contiguously: a new
spectrum's box of several slabs is gathered, summed and written back, a
box of one slab (1-d, or theta = 1) summed in place.  A run's
steps write into arrays solve allocates once (_RunArrays): two pairs of
state spectra, the new state taking the pair the spent state before it
held, one complex work array, the physical u and the source field; the
history recycles its spent source spectrum.  Of
arrays, a steady step allocates only irfftn's inner stage (one spectrum,
for n >= 2) and, for theta > 2, the u^2 of _abs_power.

The step may grow with time (key dt_doubling_times): the run is a sequence
of epochs, each with twice the step of the one before.  step_schedule is
the one owner of the run's time grid: it lays the run out in one pass as
rows of state time, step size and snapshot flag, and a snapshot time must
be a row's time.  solve walks the rows from a start state (for data
fields, state_from_fields) with one step cache per epoch and reseeds the
source history at each epoch's first step.

A SolverState holds the flow only: the SolverConfig owns the equation, and
solve owns the clock, stamping each snapshot with its configured time.
A state solve gives the ledger or the observer holds the run's arrays, so
it is valid until the next step, as a LinearFlow.at state is until the
next call; the start state is never written, and the returned final
state is one no later step writes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Field, Grid, forward_transform, inverse_transform
from .symbols import (SymbolTable, build_symbol_table, green_pair,
                      propagator_levels)

# Abort threshold on sup|u|: 10 times the small-data amplitude bound 0.5.
GUARD_BOUND = 5.0

_QUAD_POINTS = 8

# The most states (rows of step_schedule) a run may take: the schedule and
# the ledger keep about 0.3 kB of Python objects per state, so 10**6 states
# hold about 0.3 GB.
MAX_STATES = 10**6

# Source spectra (F_{n-1}, F_{n-2}, F_{n-3}) on the kept box (_kept_slabs)
# the Duhamel step carries to the next; it reads the two newest and
# overwrites the spent F_{n-3} with F_n.
_History = tuple[np.ndarray, np.ndarray, np.ndarray]


class InstabilityError(RuntimeError):
    """Raised when the iterate leaves the trust region sup|u| <= GUARD_BOUND."""

    def __init__(self, time: float, sup: float, bound: float):
        super().__init__(
            f"instability at t = {time:.6g}: sup|u| = {sup:.6g} "
            f"exceeds {bound:.6g}")
        self.time = time
        self.sup = sup
        self.bound = bound


class _SpectrumOrUnevaluated:
    """The field SolverState.v_hat: a state whose u_t was not evaluated
    (a LinearFlow without with_v) holds None, and reading it raises
    rather than giving an array."""

    def __get__(self, state, owner=None):
        if state is None:  # class access: the field has no default
            raise AttributeError("v_hat")
        v_hat = state.__dict__["v_hat"]
        if v_hat is None:
            raise ValueError("u_t was not evaluated for this state: its "
                             "LinearFlow formed the u row only")
        return v_hat

    def __set__(self, state, v_hat) -> None:
        state.__dict__["v_hat"] = v_hat


@dataclass(frozen=True)
class SolverState:
    """Spectral flow (u, u_t) at one instant, half-spectrum layout.
    Immutable; it holds no time and no equation (see the module docstring).
    v_hat may be None, for u_t not evaluated; reading it then raises."""

    grid: Grid
    u_hat: np.ndarray
    v_hat: np.ndarray | None = _SpectrumOrUnevaluated()

    @cached_property
    def u(self) -> np.ndarray:
        """Physical-space u, transformed once and shared by the step, the
        guard, the energy ledger and the observer."""
        return inverse_transform(self.grid, self.u_hat).values

    @cached_property
    def u_sup(self) -> float:
        """sup|u|, computed once and shared by the guard and the ledger: the
        larger of max u and -min u, so no |u| array is formed; nan when u
        holds a nan, which both reductions propagate."""
        u = self.u
        return abs(max(float(u.max()), -float(u.min())))


@dataclass(frozen=True)
class SolverConfig:
    """Stepping parameters.

    The source is dealiased by the 2/3 rule exactly when theta >= 2.
    nonlin_sign is -1 for the absorbing equation; +1 flips the source for
    the qualitative growth experiment and is not covered by any decay
    guarantee.  The step is dt until the first of dt_doubling_times and
    doubles at each (see step_schedule).  The guard bound on sup|u| is
    the module's GUARD_BOUND, the same for every config.
    """

    theta: int
    dt: float
    t_final: float
    snapshot_times: tuple[float, ...] = ()
    dt_doubling_times: tuple[float, ...] = ()
    nonlin_sign: int = -1

    def __post_init__(self) -> None:
        if self.theta < 1 or self.theta != int(self.theta):
            raise ValueError(f"theta must be a positive integer, got {self.theta}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_final >= self.dt:
            raise ValueError(
                f"t_final must be at least dt, got {self.t_final} < {self.dt}")
        if self.nonlin_sign not in (-1, 1):
            raise ValueError(f"nonlin_sign must be -1 or +1, got {self.nonlin_sign}")
        if any(t < 0 for t in self.snapshot_times):
            raise ValueError("snapshot_times must be nonnegative")


def state_from_fields(u0: Field, u1: Field) -> SolverState:
    if u0.grid != u1.grid:
        raise ValueError("u0 and u1 must share a grid")
    return SolverState(grid=u0.grid,
                       u_hat=forward_transform(u0),
                       v_hat=forward_transform(u1))


def u_field(state: SolverState) -> Field:
    return Field(state.grid, state.u)


def apply_nonlinearity(u: np.ndarray, theta: int, sign: int = -1,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise source sign * |u|^theta u, into out when given.

    Even theta uses (u^2)^(theta/2) * u; odd theta |u| (u^2)^((theta-1)/2) u.
    Both stay smooth through u = 0 and avoid fractional powers.
    """
    if theta < 1 or theta != int(theta):
        raise ValueError(f"theta must be a positive integer, got {theta}")
    source = _abs_power(u, int(theta), out=out)
    source *= sign
    source *= u
    return source


def _abs_power(u: np.ndarray, theta: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """|u|^theta for a positive integer theta (see apply_nonlinearity), into
    out when given, else a fresh array, from products only and at most one
    temporary: numpy takes array ** k through libm pow for every k above 2."""
    power = (np.abs(u, out=out) if theta % 2
             else np.multiply(u, u, out=out))
    if theta > 2:
        u_sq = u * u
        for _ in range((theta - 1) // 2):
            power *= u_sq
    return power


class LinearFlow:
    """The exact linear flow from one start state, evaluated at one time
    after another into spectra allocated once per flow.

    at(t) forms the u row (G_t + G) u_hat + G v_hat and, when with_v, the
    u_t row (G_tt + G_t) u_hat + G_t v_hat: each entry is tabulated per
    |xi|^2 level at t (symbols.propagator_levels, which rejects a negative
    t), gathered onto the lattice into one work array and multiplied into
    its row in place.  The state at(t) returns holds the flow's arrays, so
    it is valid until the next call; without with_v it has no v_hat.
    """

    def __init__(self, start: SolverState, with_v: bool = True) -> None:
        shape = start.grid.spectral_shape
        self.start = start
        self._entry = np.empty(shape)
        self._term = np.empty(shape, dtype=complex)
        self._u_hat = np.empty(shape, dtype=complex)
        self._v_hat = np.empty(shape, dtype=complex) if with_v else None

    def at(self, t: float) -> SolverState:
        grid = self.start.grid
        xi_sq, index = grid.freq_levels
        uu, uv, vu, vv = propagator_levels(xi_sq, t)
        for row, on_u, on_v in ((self._u_hat, uu, uv), (self._v_hat, vu, vv)):
            if row is None:
                continue
            # take into out= buffers its result unless mode is "clip"; the
            # index is in range, so clipping changes nothing
            np.take(on_u, index, out=self._entry, mode="clip")
            np.multiply(self._entry, self.start.u_hat, out=row)
            np.take(on_v, index, out=self._entry, mode="clip")
            row += np.multiply(self._entry, self.start.v_hat, out=self._term)
        return SolverState(grid, self._u_hat, self._v_hat)


def linear_solution(state: SolverState, t: float) -> SolverState:
    """Exact linear flow from the state after time t: one evaluation of a
    LinearFlow of its own, whose arrays the returned state owns."""
    return LinearFlow(state).at(t)


def linear_step(state: SolverState, table: SymbolTable,
                out: tuple[np.ndarray, ...] | None = None) -> SolverState:
    """Advance the linear flow by the table increment (exact per mode),
    into out = (u_hat, v_hat, work) when given (see SymbolTable.apply)."""
    if table.grid != state.grid:
        raise ValueError("symbol table grid does not match the state grid")
    return SolverState(state.grid,
                       *table.apply(state.u_hat, state.v_hat, out=out))


def _kept_slabs(grid: Grid, theta: int) -> tuple[tuple[tuple[slice, ...],
                                                      tuple[slice, ...]], ...]:
    """The modes the source keeps, as slabs (spectrum slices, box slices):
    each a block of the stored half spectrum and the block of the kept box
    it fills.  For theta >= 2 the 2/3 rule keeps |j| <= N/3, for integer
    j the cut m = N // 3, on every axis: the run j = 0 .. m and, on every
    axis but the last, the run j = -m .. -1, so the box has 2^(n-1) slabs.
    For theta = 1 one slab holds the whole stored spectrum."""
    if theta == 1:
        whole = tuple(slice(0, size) for size in grid.spectral_shape)
        return ((whole, whole),)
    n, m = grid.points_per_dim, grid.points_per_dim // 3
    ahead = (slice(0, m + 1), slice(0, m + 1))
    behind = (slice(n - m, n), slice(m + 1, 2 * m + 1))
    runs = [(ahead, behind)] * (grid.n_dims - 1) + [(ahead,)]
    # each slab pairs its spectrum slices with its box slices
    return tuple(tuple(zip(*slab)) for slab in itertools.product(*runs))


@dataclass(frozen=True)
class _StepCache:
    """Per-epoch precomputation shared by every step of size dt: the
    propagator, the slabs of the modes the source keeps (_kept_slabs) and
    the exponential Adams-Bashforth weights on that box, u_weights[k] and
    v_weights[k] multiplying F_{n-k}."""

    dt: float
    table: SymbolTable
    slabs: tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]
    u_weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    v_weights: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def box_shape(self) -> tuple[int, ...]:
        return self.u_weights[0].shape

    @property
    def one_slab(self) -> bool:
        """The box path: a box of one slab (1-d, or theta = 1) is summed in
        place, one of several in _RunArrays.gathered."""
        return len(self.slabs) == 1


def _make_step_cache(grid: Grid, config: SolverConfig,
                     dt: float) -> _StepCache:
    table = build_symbol_table(grid, dt)
    slabs = _kept_slabs(grid, config.theta)

    # Gauss-Legendre quadrature of int_0^dt G(dt - s) F(s) ds with F the
    # quadratic through F_n, F_{n-1}, F_{n-2} at tau = s/dt = 0, -1, -2,
    # extrapolated over the step: the integral collapses to
    # sum_k w_k F_{n-k} with per-mode weights w_k = int G(dt - s) L_k ds,
    # L_k the Lagrange basis of those nodes.  The weights are radial, so
    # they are summed once per |xi|^2 level and gathered onto the box.
    nodes, weights = leggauss(_QUAD_POINTS)
    xi_sq, index = grid.freq_levels
    u_weights = tuple(np.zeros(xi_sq.shape) for _ in range(3))
    v_weights = tuple(np.zeros(xi_sq.shape) for _ in range(3))
    for tau, w in zip(0.5 * (nodes + 1.0), 0.5 * dt * weights):
        ker, ker_t = green_pair(xi_sq, dt * (1.0 - tau))
        lagrange = ((tau + 1) * (tau + 2) / 2, -tau * (tau + 2),
                    tau * (tau + 1) / 2)
        for wu, wv, basis in zip(u_weights, v_weights, lagrange):
            wu += (w * basis) * ker
            wv += (w * basis) * ker_t
    # the last slab holds the last run of every axis: its box ends are
    # the box's shape
    box_shape = tuple(box.stop for box in slabs[-1][1])
    box_index = _kept(index, slabs, np.empty(box_shape, dtype=index.dtype))
    return _StepCache(dt=dt, table=table, slabs=slabs,
                      u_weights=tuple(wu[box_index] for wu in u_weights),
                      v_weights=tuple(wv[box_index] for wv in v_weights))


def _kept(spectrum: np.ndarray, slabs, out: np.ndarray) -> np.ndarray:
    """The kept box of a stored spectrum, slab by slab into out."""
    for spectral, box in slabs:
        out[box] = spectrum[spectral]
    return out


def _put_kept(box_values: np.ndarray, slabs, spectrum: np.ndarray) -> None:
    """Write a kept box back into its slabs of a stored spectrum."""
    for spectral, box in slabs:
        spectrum[spectral] = box_values[box]


class _RunArrays:
    """The arrays a run's steps write, allocated once: two pairs of state
    spectra, one complex work array, the physical u and the source field.
    A step from a state writes the pair that state does not hold: the
    pair of the spent state before it, or the first pair after a start
    state the run does not own.  The work array also holds the kept box
    as term, a source term, and, unless _StepCache.one_slab, as gathered,
    a new spectrum's box.  With m = N // 3 a box of several slabs holds
    (2m + 1)^(n-1) (m + 1) of the N^(n-1) (N/2 + 1) stored modes, at most
    66/144 < 0.46 of them (N = 16, n = 2), so both fit."""

    def __init__(self, grid: Grid, cache: _StepCache) -> None:
        def spectrum() -> np.ndarray:
            return np.empty(grid.spectral_shape, dtype=complex)

        self._pairs = ((spectrum(), spectrum()), (spectrum(), spectrum()))
        self.work = spectrum()
        boxes = self.work.reshape(-1)
        shape, size = cache.box_shape, math.prod(cache.box_shape)
        self.term = boxes[:size].reshape(shape)
        self.gathered = (None if cache.one_slab
                         else boxes[size:2 * size].reshape(shape))
        self.u = np.empty(grid.shape)
        self.source = np.empty(grid.shape)

    def spectra_after(self, state: SolverState) -> tuple[np.ndarray, ...]:
        first, second = self._pairs
        return second if state.u_hat is first[0] else first


def _kept_hat(values: np.ndarray, cache: _StepCache, work: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """The spectrum of values on the kept box, into out: the 2/3 rule
    applied by keeping only the box.  The transform goes into work first;
    numpy.fft takes out= from numpy 2.0, the floor pyproject.toml
    declares."""
    return _kept(np.fft.rfftn(values, out=work), cache.slabs, out)


def _seed_history(state: SolverState, f0: np.ndarray, config: SolverConfig,
                  cache: _StepCache,
                  work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F_{-1}, F_{-2}) from the Taylor line F_0 + t F_t through the data,
    with the exact source rate F_t = sign (theta+1) |u|^theta u_t."""
    rate = _abs_power(state.u, config.theta)
    rate *= inverse_transform(state.grid, state.v_hat).values
    rate *= config.nonlin_sign * (config.theta + 1)
    rate_hat = _kept_hat(rate, cache, work, np.empty_like(f0))
    rate_hat *= cache.dt
    f_1 = f0 - rate_hat
    return f_1, f_1 - rate_hat


def step_semilinear(state: SolverState, config: SolverConfig,
                    cache: _StepCache, history: _History | None,
                    arrays: _RunArrays | None = None
                    ) -> tuple[SolverState, _History]:
    """One Duhamel step of the cache's dt from the source history (None
    before the first step, which seeds it); returns the new state, which
    solve guards, and the history for the next step.  The new state's
    spectra and u are written into arrays, a run's _RunArrays (fresh ones
    when None); so is the source, whose spectrum takes the spent one's
    place in the history."""
    if arrays is None:
        arrays = _RunArrays(state.grid, cache)
    source = apply_nonlinearity(state.u, config.theta, config.nonlin_sign,
                                out=arrays.source)
    if history is None:
        f0 = _kept_hat(source, cache, arrays.work,
                       np.empty(cache.box_shape, dtype=complex))
        f1, f2 = _seed_history(state, f0, config, cache, arrays.work)
    else:
        f1, f2, spent = history
        f0 = _kept_hat(source, cache, arrays.work, out=spent)
    new = linear_step(state, cache.table,
                      out=(*arrays.spectra_after(state), arrays.work))
    # the source adds on the kept box only, outside which F is zero: each
    # new spectrum's box, one contiguous array (a box of one slab is a
    # block of the spectrum, one of several is gathered and goes back),
    # takes the F_n, F_{n-1}, F_{n-2} terms in that order
    for spectrum, weights in ((new.u_hat, cache.u_weights),
                              (new.v_hat, cache.v_weights)):
        box = (spectrum[cache.slabs[0][0]] if cache.one_slab
               else _kept(spectrum, cache.slabs, arrays.gathered))
        for f, w in zip((f0, f1, f2), weights):
            box += np.multiply(w, f, out=arrays.term)
        if not cache.one_slab:
            _put_kept(box, cache.slabs, spectrum)
    # the cached_property u, filled with the run's physical u
    new.__dict__["u"] = inverse_transform(new.grid, new.u_hat,
                                          out=arrays.u).values
    return new, (f0, f1, f2)


def step_schedule(config: SolverConfig) -> list[tuple[float, float, bool]]:
    """The run as a table of rows (t, dt, snapshot), one per state from
    t = 0: the state's time (a snapshot's configured time exactly), the
    step that reaches it (the first epoch's for state 0) and whether it is
    a snapshot.  The epochs are counted in one walk over their ends, the
    doubling times before t_final and then t_final, the step doubling
    after each end; doubling times at or past t_final are ignored.  Their
    rows are laid out only once the run is known to take at most
    MAX_STATES states.  A ValueError if it takes more, if an epoch's end
    is off its grid or leaves it no step, or if a snapshot time is no
    row's time, lies past t_final or shares its row with another."""
    epochs, states = [], 1
    start, step = 0.0, config.dt
    # a nan doubling time is kept as an end: it is on no grid, so it fails
    ends = [t for t in config.dt_doubling_times if not t >= config.t_final]
    for end in ends + [config.t_final]:
        what = "t_final" if end == config.t_final else "doubling time"
        steps = (end - start) / step if math.isfinite(end) else 0.0
        n = round(min(steps, MAX_STATES))  # an infinite count included
        if n > MAX_STATES - states:
            raise ValueError(f"{what} {end} lies more than "
                             f"{MAX_STATES - states} steps of dt = {step} "
                             f"after t = {start}; a run may take at most "
                             f"{MAX_STATES} states")
        if not abs(start + n * step - end) <= 1e-9 * max(1.0, abs(end)):
            raise ValueError(f"{what} {end} is not on the grid of dt = {step} "
                             f"from t = {start}; the doubling times, the "
                             f"snapshot times and t_final must all lie on the "
                             f"step's grid, as they do for a dt that divides "
                             f"the one they were laid out for (such as dt/2)")
        if n < 1:
            raise ValueError(f"{what} {end} leaves no step of dt = {step} "
                             f"after t = {start}")
        epochs.append((start, step, n))
        states += n
        start, step = end, 2 * step
    table = [(0.0, config.dt, False)]
    for start, step, n in epochs:
        table += [(start + i * step, step, False) for i in range(1, n + 1)]
    times = [t for t, _dt, _snapshot in table]
    for t in config.snapshot_times:
        if not t <= config.t_final + 1e-9 * max(1.0, config.t_final):
            raise ValueError(f"snapshot time {t} lies beyond t_final")
        tol = 1e-9 * max(1.0, t)
        k = min(bisect_left(times, t - tol), len(times) - 1)
        t_k, dt_k, taken = table[k]
        if abs(t_k - t) > tol:
            raise ValueError(f"snapshot time {t} is not on the grid of "
                             f"dt = {dt_k} from t = {times[k - 1]:.10g}")
        if taken:
            raise ValueError(f"snapshot times {t_k} and {t} fall on one "
                             f"step of dt = {dt_k}")
        table[k] = (t, dt_k, True)
    return table


def solve(start: SolverState, config: SolverConfig, observer=None,
          ledger=None) -> SolverState:
    """March the semilinear equation from the start state to t_final;
    returns the final state.

    The states and their times are the rows of step_schedule.  Each epoch
    steps with its own cache, built when the epoch starts after the last
    one's is dropped, and its first step reseeds the source history.  Each
    state, the first included, is guarded (sup|u| <= GUARD_BOUND), then
    given to the ledger (analysis.EnergyLedger) and, at snapshot steps, to
    the observer as (t, state); all share the state's one physical u.
    """
    table = step_schedule(config)
    state = start
    cache = _make_step_cache(state.grid, config, config.dt)
    history = None
    arrays = _RunArrays(state.grid, cache)
    for k, (t, dt, snapshot) in enumerate(table):
        if k:
            if dt != cache.dt:  # a new epoch; never hold two caches
                cache = history = None
                cache = _make_step_cache(state.grid, config, dt)
            state, history = step_semilinear(state, config, cache, history,
                                             arrays)
        if not np.isfinite(state.u_sup) or state.u_sup > GUARD_BOUND:
            raise InstabilityError(time=t, sup=state.u_sup, bound=GUARD_BOUND)
        if ledger is not None:
            ledger.record(t, state, config.theta)
        if snapshot and observer is not None:
            observer(t, state)
    return state


def check_time_order(h: int) -> None:
    """A ValueError unless time_derivative can give the h-th derivative."""
    if h not in (0, 1, 2):
        raise ValueError(f"h must be 0, 1 or 2, got {h}")


def time_derivative(state: SolverState, h: int,
                    config: SolverConfig | None) -> Field:
    """h-th time derivative of the flow read off the state.

    h = 0 gives u, h = 1 gives u_t, h = 2 substitutes the equation:
    u_tt = Lap u - u_t + sign |u|^theta u with config's theta and sign, or
    u_tt = Lap u - u_t for the linear flow (config None), the Laplacian
    evaluated spectrally.
    """
    check_time_order(h)
    if h == 0:
        return u_field(state)
    if h == 1:
        return inverse_transform(state.grid, state.v_hat)
    grid = state.grid
    linear_part = inverse_transform(
        grid, -grid.freq_sq * state.u_hat - state.v_hat)
    if config is None:
        return linear_part
    return Field(grid, linear_part.values
                 + apply_nonlinearity(state.u, config.theta, config.nonlin_sign))
