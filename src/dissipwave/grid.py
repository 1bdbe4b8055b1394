"""Periodic grid, discrete Fourier transforms, and snapshot serialization.

The computational domain is the box [-half_width, half_width)^n_dims sampled
on a uniform lattice with points_per_dim points per axis.  The frequency
lattice carries the angular frequencies xi_j = (pi / half_width) * j.

Every field is real, so its DFT is Hermitian, c(-k) = conj(c(k)), and only
half of it is stored: the real-to-complex layout of numpy.fft.rfftn, of
shape shape[:-1] + (N//2 + 1,).  Every axis but the last holds all modes
j in [-N/2, N/2) in FFT order; the last axis holds j = 0 .. N/2 only.  Each
interior last-axis column (0 < j < N/2) stands for itself and its
conjugate partner, which mode_multiplicity records for sums over modes.
A spectrum is this plain array, with no wrapper: forward_transform
returns it, and inverse_transform(grid, coeffs) takes it with the grid it
lives on.  The forward transform is the plain (unnormalized) DFT sum; the
inverse carries the 1/N factor per axis and returns a real field by
construction.

This module is the one caller of numpy.fft's transforms in the package
(oracle's RK4 reference keeps its own).  Each transform runs
numpy.fft.rfftn's or irfftn's one-axis stages in their order, so its
result is theirs bit for bit, but the leading-axis stages run in place in
a spectrum the caller owns: the forward transform's out, the inverse
transform's work, which may be the caller's spectrum itself.  irfftn
would allocate a fresh complex spectrum for each leading-axis stage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily; load it with the package

SNAPSHOT_MAGIC = b"DWF1"

# The most points a grid may have: a semilinear run traces about 170 bytes
# per point (semi2d-theta2 on 128^2), so 2^24 = 256^3 = 4096^2 take 2.8 GB.
MAX_POINTS = 2**24


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_width, half_width)^n_dims."""

    n_dims: int
    points_per_dim: int
    half_width: float

    def __post_init__(self) -> None:
        if self.n_dims not in (1, 2, 3):
            raise ValueError(f"n_dims must be 1, 2 or 3, got {self.n_dims}")
        n = self.points_per_dim
        if n < 16 or n & (n - 1):
            raise ValueError(
                f"points_per_dim must be a power of two >= 16, got {n}")
        if n ** self.n_dims > MAX_POINTS:
            raise ValueError(f"a grid may have at most {MAX_POINTS} "
                             f"points, got {n}^{self.n_dims}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, "
                             f"got {self.half_width}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.n_dims

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the stored half spectrum."""
        return self.shape[:-1] + (self.points_per_dim // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.n_dims

    @property
    def mode_count(self) -> int:
        return self.points_per_dim ** self.n_dims

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis, x_j = -L + j dx."""
        return -self.half_width + self.dx * np.arange(self.points_per_dim)

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*(self.axis_coords,) * self.n_dims,
                                 indexing="ij", sparse=True))

    @property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full lattice, a fresh array on each read: the
        data read it once, analysis.weighted_profile once per semilinear
        snapshot (about 0.08 ms on 256^2, against the 0.5 MB it would
        keep cached there)."""
        return sum(c * c for c in self.coords)

    @cached_property
    def freq_grids(self) -> tuple[np.ndarray, ...]:
        """Broadcastable angular frequencies (pi / half_width) * j, one per
        axis: FFT order on every axis but the last, 0 .. N/2 on the last."""
        n, d = self.points_per_dim, self.dx
        full = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        half = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)
        return tuple(np.meshgrid(*(full,) * (self.n_dims - 1), half,
                                 indexing="ij", sparse=True))

    @property
    def mode_multiplicity(self) -> np.ndarray:
        """Lattice modes each stored last-axis column stands for: 2 for the
        interior columns, whose conjugate partners are not stored, 1 for
        the zero and Nyquist columns.  A fresh array on each read: the
        weights and the band checks read it once each."""
        out = np.full(self.points_per_dim // 2 + 1, 2.0)
        out[0] = out[-1] = 1.0
        return out

    @property
    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the stored half spectrum, a fresh array on each read:
        the level table and each weight are built from it once;
        solver.time_derivative reads it on each call with h = 2, which no
        built-in preset reports."""
        return sum(f * f for f in self.freq_grids)

    @cached_property
    def freq_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Level table (levels, index) of freq_sq: its distinct values in
        increasing order and, per stored mode, the position of its value,
        so levels[index] is freq_sq bit for bit.  A radial multiplier is
        evaluated once per level and spread onto the lattice by the one
        gather values[index].

        Built on the folded lattice, rows j = 0 .. N/2 of every leading
        axis: mode N - j has the frequency -xi_j, whose square is xi_j^2
        bit for bit, so those rows hold every level.  The folded index is
        spread onto each leading axis by the row map j -> min(j, N - j),
        which takes about half the transient of np.unique over the whole
        stored spectrum and gives its table exactly."""
        n = self.points_per_dim
        folded = tuple(f[(slice(0, n // 2 + 1),) * self.n_dims]
                       for f in self.freq_grids)
        levels, index = np.unique(sum(f * f for f in folded),
                                  return_inverse=True)
        index = index.reshape((n // 2 + 1,) * self.n_dims)
        rows = np.arange(n)
        rows = np.minimum(rows, n - rows)
        for axis in range(self.n_dims - 1):
            index = np.take(index, rows, axis=axis)
        return levels, index

    @cached_property
    def freq_radius(self) -> np.ndarray:
        return np.sqrt(self.freq_sq)

    @property
    def nyquist_freq(self) -> float:
        return np.pi * self.points_per_dim / (2.0 * self.half_width)

    @property
    def origin_index(self) -> tuple[int, ...]:
        """Lattice index of x = 0 (exact for even point counts)."""
        return (self.points_per_dim // 2,) * self.n_dims


def make_grid(n_dims: int, points_per_dim: int, half_width: float) -> Grid:
    """Construct a validated grid."""
    return Grid(n_dims=n_dims, points_per_dim=points_per_dim,
                half_width=float(half_width))


@dataclass(frozen=True)
class Field:
    """Real-valued samples on a grid.  Treated as immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "values", v)


def forward_transform(field: Field, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Plain-sum DFT of a real field: its half spectrum, into out when
    given.  numpy.fft.rfftn's stages in its order, so bit for bit its
    result: the last axis real-to-complex into the spectrum, then each
    leading axis in place, last to first; no stage allocates when out is
    given."""
    spectrum = np.fft.rfft(field.values, axis=-1, out=out)
    for axis in reversed(range(field.grid.n_dims - 1)):
        np.fft.fft(spectrum, axis=axis, out=spectrum)
    return spectrum


def inverse_transform(grid: Grid, coeffs: np.ndarray,
                      out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> Field:
    """Inverse DFT (1/N per axis) of a half spectrum on grid: a real field,
    whose values are out when given.  numpy.fft.irfftn's stages in its
    order, so bit for bit its result: each leading axis in place in work,
    a complex half spectrum, first to last, then the last axis
    complex-to-real into the field.  coeffs is copied into work unless
    work is coeffs, by which the caller hands over a spectrum it is done
    with; without work the copy is fresh.  A 1-d grid has no leading axis,
    so it neither copies nor writes work."""
    if np.shape(coeffs) != grid.spectral_shape:
        raise ValueError(
            f"coefficient shape {np.shape(coeffs)} does not match the half "
            f"spectrum shape {grid.spectral_shape}")
    if grid.n_dims > 1:
        if work is None:
            work = np.array(coeffs, dtype=complex)
        elif work is not coeffs:
            np.copyto(work, coeffs)
        _leading_inverse_stages(grid, work)
        coeffs = work
    return Field(grid, np.fft.irfft(coeffs, n=grid.points_per_dim, axis=-1,
                                    out=out))


def _leading_inverse_stages(grid: Grid, work: np.ndarray) -> None:
    """irfftn's leading-axis stages, first to last, in place in work."""
    for axis in range(grid.n_dims - 1):
        np.fft.ifft(work, axis=axis, out=work)


def inverse_transform_rows(grid: Grid, work: np.ndarray, block: np.ndarray):
    """inverse_transform(grid, work, work=work) a block of lines at a
    time, so no field is formed: yields (rows, values), rows a slice of
    field.reshape(-1, N) and values those lines of the field, bit for
    bit.  The leading stages run in place in work, which the caller hands
    over; the last stage writes block.shape[0] lines at a time into the
    first floats of block, a complex array of N//2 + 1 columns, so values
    is valid until the next block."""
    _leading_inverse_stages(grid, work)
    n = grid.points_per_dim
    lines = work.reshape(-1, n // 2 + 1)
    size = block.shape[0]
    out = block.view(np.float64).reshape(-1)[:size * n].reshape(size, n)
    for start in range(0, lines.shape[0], size):
        rows = slice(start, start + size)
        part = lines[rows]
        yield rows, np.fft.irfft(part, n=n, axis=-1, out=out[:len(part)])


def field_view(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """A field on grid laid over the first N^n floats of a half spectrum's
    bytes, complex or two real ones stacked: they hold N^n + 2 N^(n-1)
    floats, so a caller done with the spectrum may form a field in it."""
    return (spectrum.view(np.float64).reshape(-1)[:grid.mode_count]
            .reshape(grid.shape))


def check_multi_index(alpha: tuple[int, ...]) -> None:
    """A ValueError unless every order in alpha is a nonnegative integer."""
    if any(a < 0 or a != int(a) for a in alpha):
        raise ValueError(f"alpha must be nonnegative integers, got {alpha}")


def derivative_multiplier(grid: Grid, alpha: tuple[int, ...]) -> np.ndarray:
    """Per-mode factor prod_k (i xi_k)^alpha_k for the derivative D^alpha.

    The Nyquist mode has no conjugate partner, so it is zeroed along every
    differentiated axis; this keeps outputs real and makes the operators
    compose exactly (applying alpha=(1,) twice equals alpha=(2,)).
    """
    if len(alpha) != grid.n_dims:
        raise ValueError(
            f"alpha has length {len(alpha)}, expected {grid.n_dims}")
    check_multi_index(alpha)
    mult = np.ones(grid.spectral_shape, dtype=np.complex128)
    for order, freqs in zip(alpha, grid.freq_grids):
        if order == 0:
            continue
        freqs = freqs.copy()
        # each sparse axis array is one-dimensional in content; the
        # Nyquist mode sits at index N/2 in both the full and half layouts
        freqs.flat[grid.points_per_dim // 2] = 0.0
        mult = mult * (1j * freqs) ** int(order)
    return mult


def derivative_field(field: Field, alpha: tuple[int, ...]) -> Field:
    """Real-space D^alpha f via the spectral route; the product spectrum
    is transformed in place."""
    spectrum = forward_transform(field)
    spectrum *= derivative_multiplier(field.grid, alpha)
    return inverse_transform(field.grid, spectrum, work=spectrum)


def write_snapshot(path, field: Field, time: float) -> None:
    """Serialize one field in the DWF1 layout.

    Little-endian: magic "DWF1", u32 n_dims, u32 points_per_dim,
    f64 half_width, f64 time, then points_per_dim^n_dims f64 samples in
    row-major order.
    """
    g = field.grid
    header = SNAPSHOT_MAGIC + struct.pack(
        "<IIdd", g.n_dims, g.points_per_dim, g.half_width, float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8"))


def read_snapshot(path) -> tuple[Field, float]:
    """Read a DWF1 snapshot back into (field, time)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = len(SNAPSHOT_MAGIC) + struct.calcsize("<IIdd")
    if len(raw) < head_len or raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a DWF1 snapshot")
    n_dims, n_pts, half_width, time = struct.unpack(
        "<IIdd", raw[4:head_len])
    grid = Grid(n_dims=n_dims, points_per_dim=n_pts, half_width=half_width)
    expected = grid.mode_count * 8
    if len(raw) - head_len != expected:
        raise ValueError(f"{path}: payload is {len(raw) - head_len} bytes, "
                         f"expected {expected}")
    values = np.frombuffer(raw, dtype="<f8", offset=head_len)
    return Field(grid, values.reshape(grid.shape).astype(np.float64)), time
