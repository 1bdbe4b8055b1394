"""Grid construction, transforms, spectral derivatives, snapshot IO."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from dissipwave import (Field, derivative_field, derivative_multiplier,
                        forward_transform, inverse_transform, make_grid,
                        read_snapshot, write_snapshot)
from dissipwave.grid import MAX_POINTS, SNAPSHOT_MAGIC, field_view


def test_grid_properties():
    g = make_grid(1, 64, 8.0)
    assert g.dx == pytest.approx(0.25)
    assert g.shape == (64,)
    assert g.cell_volume == pytest.approx(0.25)
    assert g.mode_count == 64
    assert g.axis_coords[0] == pytest.approx(-8.0)
    assert g.axis_coords[-1] == pytest.approx(8.0 - 0.25)
    assert g.nyquist_freq == pytest.approx(np.pi * 32 / 8.0)


def test_grid_refuses_more_points_than_it_may_hold():
    # a grid holds no array until one is read, so the largest grids
    # build here for free; the next power of two on any axis is refused
    assert MAX_POINTS == 2**24
    for n_dims, n in ((1, 2**24), (2, 4096), (3, 256)):
        assert make_grid(n_dims, n, 8.0).mode_count == MAX_POINTS
        with pytest.raises(ValueError, match="may have at most 16777216 points"):
            make_grid(n_dims, 2 * n, 8.0)


def test_grid_validation():
    with pytest.raises(ValueError, match="power of two"):
        make_grid(1, 60, 8.0)
    with pytest.raises(ValueError, match="power of two"):
        make_grid(1, 8, 8.0)
    with pytest.raises(ValueError, match="n_dims"):
        make_grid(4, 64, 8.0)
    with pytest.raises(ValueError, match="half_width"):
        make_grid(1, 64, -1.0)
    # an infinite box would have nan coordinates and zero frequencies
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        make_grid(1, 64, math.inf)


def test_field_shape_validation(grid1d, grid2d):
    with pytest.raises(ValueError, match="shape"):
        Field(grid1d, np.zeros(32))
    # irfftn would zero-pad the short spectrum and crop the full lattice
    with pytest.raises(ValueError, match=r"^coefficient shape \(32,\) does "
                       r"not match the half spectrum shape \(33,\)$"):
        inverse_transform(grid1d, np.zeros(32, dtype=complex))
    with pytest.raises(ValueError, match=r"^coefficient shape \(32, 32\) does "
                       r"not match the half spectrum shape \(32, 17\)$"):
        inverse_transform(grid2d, np.zeros(grid2d.shape, dtype=complex))


def test_transform_round_trip(grid2d, rng):
    f = Field(grid2d, rng.standard_normal(grid2d.shape))
    back = inverse_transform(grid2d, forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_transform_round_trip_3d(rng):
    g = make_grid(3, 16, 4.0)
    f = Field(g, rng.standard_normal(g.shape))
    spec = forward_transform(f)
    assert isinstance(spec, np.ndarray) and spec.shape == (16, 16, 9)
    back = inverse_transform(g, spec)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


TRANSFORM_GRIDS = (make_grid(1, 32, 4.0), make_grid(2, 16, 4.0),
                   make_grid(2, 32, 8.0), make_grid(3, 16, 4.0),
                   make_grid(3, 32, 4.0))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("g", TRANSFORM_GRIDS,
                         ids=lambda g: f"{g.n_dims}d-{g.points_per_dim}")
def test_forward_transform_is_rfftn_bit_for_bit(g, rng):
    # numpy's stages in numpy's order, last axis first: any other order of
    # the leading stages differs from rfftn in the last bits in 3-d
    f = Field(g, rng.standard_normal(g.shape))
    want = np.fft.rfftn(f.values)
    assert np.array_equal(_bits(forward_transform(f)), _bits(want))
    out = np.full(g.spectral_shape, np.nan, dtype=complex)
    assert forward_transform(f, out=out) is out
    assert np.array_equal(_bits(out), _bits(want))


@pytest.mark.parametrize("g", TRANSFORM_GRIDS,
                         ids=lambda g: f"{g.n_dims}d-{g.points_per_dim}")
def test_inverse_transform_is_irfftn_bit_for_bit(g, rng):
    coeffs = forward_transform(Field(g, rng.standard_normal(g.shape)))
    kept = coeffs.copy()
    want = np.fft.irfftn(coeffs, s=g.shape, axes=tuple(range(g.n_dims)))
    assert np.array_equal(_bits(inverse_transform(g, coeffs).values),
                          _bits(want))
    out = np.full(g.shape, np.nan)
    assert inverse_transform(g, coeffs, out=out).values is out
    assert np.array_equal(_bits(out), _bits(want))
    # a work spectrum takes a copy and the leading stages; coeffs stays
    work = np.full(g.spectral_shape, np.nan, dtype=complex)
    got = inverse_transform(g, coeffs, work=work).values
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(coeffs), _bits(kept))
    assert np.isnan(work).all() == (g.n_dims == 1)  # 1-d: no stage, no copy
    # work is coeffs: the caller's spectrum is overwritten, not copied
    got = inverse_transform(g, coeffs, out=out, work=coeffs).values
    assert got is out and np.array_equal(_bits(out), _bits(want))
    assert np.array_equal(_bits(coeffs), _bits(kept)) == (g.n_dims == 1)


def test_only_grid_calls_numpy_fft():
    # grid owns the transform layout: every other module transforms through
    # forward_transform and inverse_transform, except oracle's RK4
    # reference, which keeps its own full-spectrum transforms to stay
    # independent of the layout it checks
    import ast
    from pathlib import Path

    import dissipwave
    allowed = {"grid.py": None, "oracle.py": "rk4_reference"}
    found = []
    for path in sorted(Path(dissipwave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}  # node -> name of the top-level function holding it
        for top in tree.body:
            for node in ast.walk(top):
                scopes[node] = getattr(top, "name", None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                name = "fft"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [
                    getattr(node, "module", None) or ""]
                if not any("fft" in n.split(".") for n in names):
                    continue
                name = "import"
            else:
                continue
            if path.name in allowed and allowed[path.name] in (
                    None, scopes.get(node)):
                continue
            found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_half_spectrum_matches_full_transform(rng):
    for g in (make_grid(1, 32, 4.0), make_grid(2, 16, 4.0),
              make_grid(3, 16, 4.0)):
        f = Field(g, rng.standard_normal(g.shape))
        full = np.fft.fftn(f.values)
        half = forward_transform(f)
        assert half.shape == g.spectral_shape
        assert np.max(np.abs(half - full[..., :g.points_per_dim // 2 + 1])) \
            < 1e-12 * np.max(np.abs(full))


def test_parseval(grid1d, rng):
    # the stored half spectrum counts each interior last-axis column twice
    f = Field(grid1d, rng.standard_normal(grid1d.shape))
    phys = np.sum(f.values**2) * grid1d.cell_volume
    c = forward_transform(f)
    n = grid1d.points_per_dim
    total = (np.abs(c[0]) ** 2 + np.abs(c[n // 2]) ** 2
             + 2.0 * np.sum(np.abs(c[1:n // 2]) ** 2))
    spec = total * grid1d.cell_volume / grid1d.mode_count
    assert phys == pytest.approx(spec, rel=1e-10)


def test_mode_multiplicity_counts_full_lattice():
    for g in (make_grid(1, 32, 4.0), make_grid(2, 16, 4.0),
              make_grid(3, 16, 4.0)):
        mult = np.broadcast_to(g.mode_multiplicity, g.spectral_shape)
        assert mult.sum() == g.mode_count


def test_single_mode_derivative_exact(grid1d):
    # mode k has frequency k pi / L; the derivative must be exact
    k = 3
    freq = k * np.pi / grid1d.half_width
    x = grid1d.axis_coords
    f = Field(grid1d, np.sin(freq * x))
    df = derivative_field(f, (1,))
    assert np.max(np.abs(df.values - freq * np.cos(freq * x))) < 1e-10


def test_second_derivative_is_first_twice(grid1d, rng):
    f = Field(grid1d, rng.standard_normal(grid1d.shape))
    once = derivative_field(derivative_field(f, (1,)), (1,))
    twice = derivative_field(f, (2,))
    assert np.max(np.abs(once.values - twice.values)) < 1e-9


def test_mixed_partials_commute(grid2d, rng):
    f = Field(grid2d, rng.standard_normal(grid2d.shape))
    xy = derivative_field(derivative_field(f, (1, 0)), (0, 1))
    yx = derivative_field(derivative_field(f, (0, 1)), (1, 0))
    assert np.max(np.abs(xy.values - yx.values)) < 1e-9


def test_derivative_translation_equivariance(grid1d, rng):
    f = rng.standard_normal(grid1d.shape)
    shift = 7
    d_shifted = derivative_field(Field(grid1d, np.roll(f, shift)), (1,))
    shifted_d = np.roll(derivative_field(Field(grid1d, f), (1,)).values, shift)
    assert np.max(np.abs(d_shifted.values - shifted_d)) < 1e-9


def test_nyquist_mode_derivative_vanishes(grid1d):
    # the real Nyquist cosine has no odd-derivative representation on the
    # grid; the multiplier zeroes it instead of leaving an imaginary residue
    n = grid1d.points_per_dim
    f = Field(grid1d, np.cos(grid1d.nyquist_freq * grid1d.axis_coords))
    df = derivative_field(f, (1,))
    assert np.max(np.abs(df.values)) < 1e-10
    mult = derivative_multiplier(grid1d, (3,))
    assert mult[n // 2] == 0


def test_derivative_multiplier_validation(grid1d, grid2d):
    with pytest.raises(ValueError):
        derivative_multiplier(grid1d, (1, 1))
    with pytest.raises(ValueError):
        derivative_multiplier(grid2d, (-1, 0))


def test_snapshot_round_trip(tmp_path, grid2d, rng):
    f = Field(grid2d, rng.standard_normal(grid2d.shape))
    path = tmp_path / "state.dwf"
    write_snapshot(path, f, 1.75)
    f2, t = read_snapshot(path)
    assert t == 1.75
    assert f2.grid == grid2d
    assert np.array_equal(f2.values, f.values)


def test_snapshot_layout(tmp_path, grid1d):
    f = Field(grid1d, np.zeros(grid1d.shape))
    path = tmp_path / "zero.dwf"
    write_snapshot(path, f, 0.5)
    raw = path.read_bytes()
    assert raw[:4] == SNAPSHOT_MAGIC == b"DWF1"
    assert len(raw) == 4 + 4 + 4 + 8 + 8 + 8 * grid1d.mode_count


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dwf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="DWF1"):
        read_snapshot(path)
    path.write_bytes(b"DW")
    with pytest.raises(ValueError, match="DWF1"):
        read_snapshot(path)


def test_snapshot_refuses_an_infinite_half_width(tmp_path, grid1d):
    path = tmp_path / "inf.dwf"
    write_snapshot(path, Field(grid1d, np.zeros(grid1d.shape)), 0.0)
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<d", math.inf)  # after magic, n_dims, N
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="half_width"):
        read_snapshot(path)


def test_snapshot_write_hands_the_field_to_the_file(tmp_path, rng):
    # the payload goes out of the field's own array, not a bytes copy
    g = make_grid(2, 512, 8.0)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "big.dwf"
    assert traced_peak(lambda: write_snapshot(path, f, 1.0)) \
        < 0.1 * f.values.nbytes
    assert path.read_bytes()[28:] == f.values.tobytes()


def test_snapshot_read_holds_the_file_and_one_copy(tmp_path, rng):
    # the file's bytes and the field's own copy of them; the values are
    # read off the bytes at the header's end, not off a sliced copy
    g = make_grid(2, 512, 8.0)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "big.dwf"
    write_snapshot(path, f, 1.0)
    read = []
    assert traced_peak(lambda: read.append(read_snapshot(path))) \
        <= 2.2 * f.values.nbytes
    (back, t), = read
    assert t == 1.0 and np.array_equal(back.values, f.values)
    assert back.values.flags.writeable


def test_snapshot_rejects_truncated_payload(tmp_path, grid1d):
    f = Field(grid1d, np.zeros(grid1d.shape))
    path = tmp_path / "trunc.dwf"
    write_snapshot(path, f, 0.0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)


@settings(max_examples=25, deadline=None)
@given(n_exp=st.integers(min_value=4, max_value=7),
       seed=st.integers(min_value=0, max_value=2**31))
def test_round_trip_property(n_exp, seed):
    g = make_grid(1, 2**n_exp, 5.0)
    vals = np.random.default_rng(seed).standard_normal(g.shape)
    back = inverse_transform(g, forward_transform(Field(g, vals)))
    assert np.max(np.abs(back.values - vals)) < 1e-11


@pytest.mark.parametrize("n_dims", [1, 2, 3])
def test_field_view_lays_a_field_over_a_spectrum(n_dims):
    # a complex half spectrum, and two real ones stacked, hold a field in
    # their first N^n floats
    g = make_grid(n_dims, 16, 1.0)
    for spectrum in (np.zeros(g.spectral_shape, dtype=complex),
                     np.zeros((2, *g.spectral_shape))):
        view = field_view(g, spectrum)
        assert view.shape == g.shape and view.dtype == np.float64
        view[...] = 1.0
        floats = spectrum.view(np.float64).reshape(-1)
        assert floats[:g.mode_count].all() and not floats[g.mode_count:].any()
