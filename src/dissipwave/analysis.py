"""Norms, energy bookkeeping, and decay-rate measurement.

All L^2-type quantities are evaluated spectrally through the Parseval
identity sum |f_j|^2 dx^n = (dx/N)^n sum |c_k|^2, so they can be read off
solver states without leaving Fourier space.  States hold the half
spectrum of real fields, so the sum over the full lattice becomes a sum
over the stored modes weighted by their Hermitian multiplicity (see
parseval_weight).  Decay rates are ordinary
least-squares fits of log(value) against log(1 + t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, field_view
from .solver import _abs_power

MIN_FIT_POINTS = 5

# energy audit bounds relative to E(0): per-step rise and balance residual
MONO_TOL = 1e-8
BALANCE_TOL = 1e-6

# the least r^2 of the middle band's exponential fit (band_report)
BAND2_MIN_R_SQUARED = 0.99


class NothingToFit(ValueError):
    """No sample inside the fit window is positive (e.g. zero data), so
    there is no decay to measure."""


class NonpositiveSample(ValueError):
    """Some sample inside the fit window is zero, negative or not finite."""


def parseval_weight(grid: Grid) -> np.ndarray:
    """Per-mode weight of the half-spectrum Parseval sum: (dx/N)^n times
    the Hermitian multiplicity of each last-axis column, one value per
    column (it broadcasts over the half spectrum)."""
    return grid.mode_multiplicity * (grid.cell_volume / grid.mode_count)


def _power(coeffs: np.ndarray, out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """|c|^2 as re^2 + im^2, into out when given, the im^2 term formed in
    work when given."""
    power = np.multiply(coeffs.real, coeffs.real, out=out)
    power += np.multiply(coeffs.imag, coeffs.imag, out=work)
    return power


def _weighted_sum(power: np.ndarray, weight: np.ndarray) -> float:
    """sum weight * power over two arrays of one shape, as one dot product
    with no product array: the one route of every spectral sum, so the
    data size e0 and the energy ledger's first Sobolev record agree bit for
    bit.  It is einsum's, as np.dot hands a long sum to a BLAS thread,
    which took 0.01-0.8 ms per 256^2 sum on a busy 2-core machine."""
    return float(np.einsum("i,i->", power.ravel(), weight.ravel()))


def spectral_l2_sq(grid: Grid, coeffs: np.ndarray, weight=None) -> float:
    """Squared L^2-type norm of a real field from its half-spectrum
    coefficients, sum weight * |c|^2.  weight is a per-mode Parseval weight
    such as sobolev_weight(grid, s); the default parseval_weight(grid)
    gives the plain L^2 norm."""
    if weight is None:
        weight = parseval_weight(grid)
    return _weighted_sum(_power(coeffs), np.broadcast_to(weight, coeffs.shape))


def check_lp_exponent(p) -> None:
    """A ValueError unless p is a real >= 1 or inf."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")


def lp_norm(f: Field, p) -> float:
    """L^p norm on the box, p any real >= 1 or inf.  The sup is the larger
    of max f and -min f, so no |f| array is formed (nan when f holds one);
    a finite p sums (|f| / sup)^p, so no p underflows or overflows."""
    check_lp_exponent(p)
    values = f.values
    sup = abs(max(float(values.max()), -float(values.min())))
    if p == math.inf or not 0 < sup < math.inf:  # zero, nan or inf data
        return sup
    scaled = np.abs(values) / sup
    scaled **= p
    return sup * (float(np.sum(scaled)) * f.grid.cell_volume) ** (1 / p)


def sobolev_weight(grid: Grid, s: int) -> np.ndarray:
    """Parseval weight of the squared H^s norm on the half spectrum:
    sum_{k=0}^{s} |xi|^(2k) times parseval_weight; s a nonnegative
    integer.  The order-k block counts all mixed partials of order k with
    their multinomial multiplicity.  A fresh array on each call, formed
    in place beside two working spectra; its owner is the caller.  |xi|^2
    is formed first, so numpy's buffers for its broadcast sum are freed
    before the other two are made."""
    if s < 0 or s != int(s):
        raise ValueError(f"s must be a nonnegative integer, got {s}")
    xi_sq = grid.freq_sq
    out = np.ones(grid.spectral_shape)
    power = np.ones(grid.spectral_shape)
    for _ in range(int(s)):
        power *= xi_sq
        out += power
    out *= parseval_weight(grid)
    return out


def _gradient_weight(grid: Grid) -> np.ndarray:
    """Parseval weight of |grad u|^2 on the half spectrum: |xi|^2 times
    parseval_weight."""
    return grid.freq_sq * parseval_weight(grid)


def e0_norm(state, s: int) -> float:
    """Size of a solver state's pair (u, u_t), the data size of a run from
    it: |u|_{H^{s+1}} + |u_t|_{H^s}, read off its half spectra.  Each of
    its two weights is built for its sum and dropped after it, so a call
    keeps nothing."""
    grid = state.grid
    return sum(math.sqrt(spectral_l2_sq(grid, spectrum,
                                        sobolev_weight(grid, k)))
               for spectrum, k in ((state.u_hat, s + 1), (state.v_hat, s)))


def weighted_profile(f: Field, t: float, r: float) -> float:
    """Spatially weighted amplitude sup_x |f| (1+t)^(n/2) (1+|x|^2/(1+t))^r.

    A bounded profile across time witnesses the pointwise decay rate
    together with its spatial envelope; r must exceed max(n/2, 1).
    """
    n = f.grid.n_dims
    if not r > max(n / 2.0, 1.0):
        raise ValueError(f"r must exceed max(n/2, 1) = {max(n / 2.0, 1.0)}, "
                         f"got {r}")
    if not 0 <= t < math.inf:  # nan fails both comparisons
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    envelope = (1.0 + f.grid.radius_sq / (1.0 + t)) ** r
    amp = float(np.max(np.abs(f.values) * envelope))
    return amp * (1.0 + t) ** (0.5 * n)


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    r_squared: float
    n_points: int
    window: tuple[float, float]


def fit_window_mask(times, window) -> np.ndarray:
    """The samples of times inside the closed fit window; a ValueError if
    the window is empty or holds fewer than MIN_FIT_POINTS of them."""
    times = np.asarray(times, dtype=np.float64)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"fit window must satisfy lo < hi, got ({lo}, {hi})")
    mask = (times >= lo) & (times <= hi)
    if int(mask.sum()) < MIN_FIT_POINTS:
        raise ValueError(
            f"fit window ({lo}, {hi}) contains {int(mask.sum())} samples; "
            f"need at least {MIN_FIT_POINTS}")
    return mask


def _linregress(x: np.ndarray, y: np.ndarray):
    """Slope, its standard error and r of the OLS line through (x, y),
    bit for bit as scipy.stats.linregress computes them (r is nan for a
    constant y, 0.0 for any other zero variance, and clipped to [-1, 1])."""
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return ssxym / ssxm, stderr, r


def _fit_log(times, values, window, abscissa) -> FitResult:
    """OLS fit of log(value) against abscissa(t) inside the window."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = fit_window_mask(times, window)
    ts, vals = times[mask], values[mask]
    finite = np.all(np.isfinite(vals))
    if finite and np.all(vals <= 0):
        raise NothingToFit("no positive value inside the fit window")
    if not finite or np.any(vals <= 0):
        raise NonpositiveSample(
            "fit requires positive finite values inside the window")
    slope, stderr, r = _linregress(abscissa(ts), np.log(vals))
    return FitResult(slope=float(slope), stderr=float(stderr),
                     r_squared=float(r) ** 2, n_points=len(ts),
                     window=(float(window[0]), float(window[1])))


def fit_decay_rate(times, values, window) -> FitResult:
    """OLS slope of log(value) vs log(1 + t) inside the window."""
    return _fit_log(times, values, window, np.log1p)


def fit_exponential_rate(times, values, window) -> FitResult:
    """OLS slope of log(value) vs t inside the window (exponential decay)."""
    return _fit_log(times, values, window, lambda ts: ts)


def field_label(alpha_order: int = 0, h: int = 0) -> str:
    """Short name of a derivative of the solution, e.g. dx_u or dt2_u."""
    name = "u"
    if alpha_order == 1:
        name = "dx_" + name
    elif alpha_order > 1:
        name = f"dx{alpha_order}_" + name
    if h == 1:
        name = "dt_" + name
    elif h > 1:
        name = f"dt{h}_" + name
    return name


def quantity_label(p, alpha_order: int = 0, h: int = 0) -> str:
    norm = "linf" if p == math.inf else f"l{p:g}"
    return f"{norm}:{field_label(alpha_order, h)}"


def target_slope(kind: str, n_dims: int, p, alpha_order: int, h: int) -> float:
    """Expected log-log decay slope of the requested norm.

    Linear flow: -(n + |alpha| + 2h)/2 for the sup norm.  Semilinear
    absorbing flow: -(n/2)(1 - 1/p) - |alpha|/2, with no gain from time
    derivatives (those are upper-bound checks only).
    """
    if kind == "linear":
        if p != math.inf:
            raise ValueError("linear decay targets are defined for the sup norm")
        return -0.5 * (n_dims + alpha_order + 2 * h)
    if kind == "semilinear":
        inv_p = 0.0 if p == math.inf else 1.0 / float(p)
        return -0.5 * n_dims * (1.0 - inv_p) - 0.5 * alpha_order
    raise ValueError(f"kind must be 'linear' or 'semilinear', got {kind!r}")


def decay_tolerance(kind: str, h: int) -> float:
    return 0.15 if (kind == "linear" and h >= 1) else 0.10


@dataclass(frozen=True)
class DecayRow:
    quantity: str
    slope: float
    stderr: float
    target: float
    tolerance: float
    one_sided: bool
    passed: bool
    r_squared: float  # of the fit; report.csv does not carry it


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[DecayRow, ...]
    window: tuple[float, float]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def judge(quantity: str, fit: FitResult, target: float, tolerance: float,
          one_sided: bool) -> DecayRow:
    """Verdict on one fitted slope: within target +- tolerance, or, when
    one-sided, at most target + tolerance."""
    if one_sided:
        ok = fit.slope <= target + tolerance
    else:
        ok = abs(fit.slope - target) <= tolerance
    return DecayRow(quantity=quantity, slope=fit.slope, stderr=fit.stderr,
                    target=target, tolerance=tolerance, one_sided=one_sided,
                    passed=ok, r_squared=fit.r_squared)


def _fit_or_nan(fitter, times, values, window,
                failing=NonpositiveSample) -> FitResult:
    """The fit, or slope nan, a failing row, on a failing error (by
    default a NonpositiveSample)."""
    try:
        return fitter(times, values, window)
    except failing:
        return FitResult(math.nan, math.nan, math.nan, 0, window)


def decay_report(series: dict, requests, kind: str, n_dims: int,
                 window) -> DecayReport:
    """Fit each requested (p, alpha_order, h) series and compare to targets.

    series maps each quantity label to its own (times, values) pair.
    Semilinear time-derivative norms are judged one-sided: the measured
    slope only has to stay at or below target + tolerance.  A nonpositive
    sample among positive ones is a failing row with slope nan.
    """
    rows = []
    for p, alpha_order, h in requests:
        label = quantity_label(p, alpha_order, h)
        fit = _fit_or_nan(fit_decay_rate, *series[label], window)
        target = target_slope(kind, n_dims, p, alpha_order, h)
        rows.append(judge(label, fit, target, decay_tolerance(kind, h),
                          one_sided=kind == "semilinear" and h >= 1))
    return DecayReport(rows=tuple(rows), window=tuple(map(float, window)))


def band_report(series: dict, n_dims: int) -> DecayReport:
    """Verdicts on the band kernel sup norms, each fit over the span of its
    own times: band 1 decays like the linear flow (sup slope -n/2, its
    x-derivative -(n+1)/2, each within 0.10); the middle band decays
    exponentially (log-slope against t at most -0.05, with r^2 at least
    BAND2_MIN_R_SQUARED).
    As in decay_report, a nonpositive sample among positive ones is a
    failing row with slope nan; so is a series with no positive sample
    (a kernel whose sup reads 0 at every time), for a kernel is never
    zero data."""
    def fit(label, fitter):
        times, values = series[label]
        return _fit_or_nan(fitter, times, values, (times[0], times[-1]),
                           failing=(NonpositiveSample, NothingToFit))

    band2 = judge("linf:band2", fit("linf:band2", fit_exponential_rate),
                  -0.05, 0.0, one_sided=True)
    rows = (judge("linf:band1", fit("linf:band1", fit_decay_rate),
                  -0.5 * n_dims, 0.10, one_sided=False),
            judge("linf:dx_band1", fit("linf:dx_band1", fit_decay_rate),
                  -0.5 * (n_dims + 1), 0.10, one_sided=False),
            replace(band2, passed=band2.passed
                    and band2.r_squared >= BAND2_MIN_R_SQUARED))
    times = series["linf:band1"][0]
    return DecayReport(rows=rows, window=(float(times[0]), float(times[-1])))


class EnergyAudit(NamedTuple):
    e0: float
    worst_rise: float  # the largest per-step rise of E
    residual: float    # the largest |E(t) - E(0) + int_0^t |u_tau|^2|
    monotone: bool     # worst_rise <= mono_tol * e0
    balanced: bool     # residual <= balance_tol * e0


def energy_audit(series: dict, mono_tol: float = MONO_TOL,
                 balance_tol: float = BALANCE_TOL) -> EnergyAudit:
    """The energy law checked on energy.csv's series, {label: (times,
    values)}; a ValueError if the energy or diss_integral series is
    missing or the two have different times."""
    for need in ("energy", "diss_integral"):
        if need not in series:
            raise ValueError(f"no {need!r} series")
    (t_e, energy), (t_i, integral) = series["energy"], series["diss_integral"]
    if not np.array_equal(t_e, t_i):
        raise ValueError("the energy and diss_integral series have "
                         "different times")
    e = np.asarray(energy, dtype=float)
    e0 = float(e[0])
    worst_rise = float(np.max(np.diff(e))) if len(e) > 1 else 0.0
    residual = float(np.max(np.abs(
        e - e[0] + np.asarray(integral, dtype=float))))
    return EnergyAudit(e0, worst_rise, residual, worst_rise <= mono_tol * e0,
                       residual <= balance_tol * e0)


@dataclass
class EnergyLedger:
    """Per-step record of energy, dissipation, and norm growth.

    dissipation_integral is int_0^t |u_tau|^2 dtau at each recorded time,
    the cumulative sixth-order rule over the recorded dissipation rates (see
    _cumulative_quintic): each interval integrates the quintic through the
    six records nearest it, so the rule is sixth order at every record, the
    end intervals included.  energy_audit checks the balance
    E(t) - E(0) + dissipation_integral(t) = 0, up to scheme error, on
    series_pairs.
    """

    sobolev_index: int
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    diss_rate: list = field(default_factory=list)
    sup_norm: list = field(default_factory=list)
    u_sobolev: list = field(default_factory=list)
    ut_sobolev: list = field(default_factory=list)
    # the arrays of one grid, built at its first record and rebuilt when
    # the grid changes: the power spectrum, its work array and the
    # |u|^(theta+2) density, views on two real half spectra (the density
    # lies over their first N^n floats, free once the power spectra are
    # summed), then the Parseval weights of |grad u|^2, the H^{s+1} norm
    # of u, |u_t|^2 and the H^s norm of u_t
    _grid: Grid | None = field(default=None, init=False, repr=False,
                               compare=False)
    _powers: tuple = field(default=(), init=False, repr=False, compare=False)
    _weights: tuple = field(default=(), init=False, repr=False, compare=False)

    def _build(self, grid: Grid) -> None:
        """The ledger's arrays for grid, the last grid's dropped first, so
        it holds one grid's at a time."""
        self._grid, self._powers, self._weights = None, (), ()
        buffer = np.empty((2, *grid.spectral_shape))
        self._powers = (*buffer, field_view(grid, buffer))
        s = self.sobolev_index
        self._weights = (_gradient_weight(grid), sobolev_weight(grid, s + 1),
                         sobolev_weight(grid, 0), sobolev_weight(grid, s))
        self._grid = grid

    def record(self, t: float, state, theta: int) -> None:
        """Record the state at time t of the flow with source power theta."""
        if self.times and t <= self.times[-1]:
            raise ValueError("ledger times must be strictly increasing")
        grid = state.grid
        q = theta + 2
        if grid != self._grid:
            self._build(grid)
        power_u, power_work, density = self._powers
        w_gradient, w_u, w_kinetic, w_ut = self._weights
        # the four spectral sums: dot products of the power spectra of u
        # and then u_t, each formed in the ledger's arrays, against the
        # ledger's weights
        power = _power(state.u_hat, power_u, power_work)
        gradient = 0.5 * _weighted_sum(power, w_gradient)
        u_sobolev = math.sqrt(_weighted_sum(power, w_u))
        power = _power(state.v_hat, power_u, power_work)
        kinetic = 0.5 * _weighted_sum(power, w_kinetic)
        ut_sobolev = math.sqrt(_weighted_sum(power, w_ut))
        # |u|^q from integer powers, multiplied in place
        density = _abs_power(state.u, theta, out=density)
        density *= state.u
        density *= state.u
        potential = float(np.sum(density)) * grid.cell_volume / q

        self.times.append(float(t))
        self.energy.append(kinetic + gradient + potential)
        self.diss_rate.append(2.0 * kinetic)
        self.sup_norm.append(state.u_sup)
        self.u_sobolev.append(u_sobolev)
        self.ut_sobolev.append(ut_sobolev)

    @property
    def dissipation_integral(self) -> np.ndarray:
        """int_0^t |u_tau|^2 dtau at each recorded time, 0 at the first."""
        return _cumulative_quintic(self.diss_rate, self.times)

    def series_pairs(self) -> dict:
        """Each column as a (times, values) pair, by its energy.csv label."""
        s = self.sobolev_index
        columns = {"energy": self.energy, "diss_rate": self.diss_rate,
                   "diss_integral": self.dissipation_integral,
                   "linf:u": self.sup_norm, f"h{s + 1}:u": self.u_sobolev,
                   f"h{s}:dt_u": self.ut_sobolev}
        return {name: (self.times, vals) for name, vals in columns.items()}


def _cumulative_quintic(y, x) -> np.ndarray:
    """int_x0^x y at each x, 0 first (empty for no records).

    Interval [x_k, x_k+1] integrates the polynomial through the min(6, n)
    records k-2 .. k+3, the stencil shifted inward at the two ends, so two
    records give the trapezoid.  The weights solve the moment equations in
    the recorded x, each interval scaled to [0, 1]: snapshot steps sit up
    to 1e-9 relative off the dt grid."""
    y, x = np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64)
    width = min(6, len(x))
    k = np.arange(len(x) - 1)
    stencil = np.clip(k - 2, 0, len(x) - width)[:, None] + np.arange(width)
    h = np.diff(x)
    nodes = (x[stencil] - x[k, None]) / h[:, None]
    powers = np.arange(width)
    moments = np.broadcast_to(1.0 / (powers + 1.0), nodes.shape)
    weights = np.linalg.solve(nodes[:, None, :] ** powers[:, None],
                              moments[..., None])[..., 0]
    parts = h * np.sum(weights * y[stencil], axis=1)
    return np.concatenate(([0.0], np.cumsum(parts)))[:len(x)]


def write_series_csv(path, series: dict) -> None:
    """Long-format time series: header t,quantity,value.

    series maps each label to its (times, values) pair, as decay_report
    takes it; values are written with repr for lossless, byte-stable rereads.
    """
    lines = ["t,quantity,value"]
    for name, (times, values) in series.items():
        lines += [f"{float(t)!r},{name},{float(v)!r}"
                  for t, v in zip(times, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """A write_series_csv file read back as {label: (times, values)}; a
    ValueError for a bad header or line or a value that is not finite."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "t,quantity,value":
        raise ValueError(f"{path}: not a series csv (bad header)")
    by_label: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected t,quantity,value")
        t, label, v = parts
        try:
            by_label.setdefault(label, []).append((float(t), float(v)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected numbers, "
                             f"got {line!r}") from None
    series = {label: tuple(np.asarray(pairs).T)
              for label, pairs in by_label.items()}
    for label, pair in series.items():
        if not np.all(np.isfinite(pair)):
            raise ValueError(f"{path}: series {label!r} holds a value "
                             f"that is not finite")
    return series


def write_report_csv(path, report: DecayReport) -> None:
    """Decay report: header quantity,slope,stderr,target,tolerance,verdict."""
    lines = ["quantity,slope,stderr,target,tolerance,verdict"]
    for r in report.rows:
        verdict = "pass" if r.passed else "fail"
        lines.append(f"{r.quantity},{float(r.slope)!r},{float(r.stderr)!r},"
                     f"{float(r.target)!r},{float(r.tolerance)!r},{verdict}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
