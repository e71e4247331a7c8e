import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjwave import (
    DomainError,
    FormatError,
    Grid,
    InsufficientResolutionError,
    ScalarField,
    field_from_bytes,
    field_to_bytes,
    load_field,
    plane_wave_field,
    save_field,
)
from hjwave.fields import (central_difference, periodic_op,
                           second_difference)


def test_grid_validation():
    with pytest.raises(InsufficientResolutionError):
        Grid((3,), (1.0,))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Grid((8,), (bad,))
    with pytest.raises(ValueError):
        Grid((8, 8), (1.0,))


def test_grid_geometry():
    g = Grid.line(10, 5.0)
    assert g.spacing == 0.5
    assert g.cell_volume == 0.5
    assert g.npoints == 10
    cube = Grid.cube(8, 2.0)
    assert cube.ndim == 3
    assert cube.is_cubic()
    assert cube.cell_volume == pytest.approx(0.25**3)
    rect = Grid((8, 16), (1.0, 1.0))
    assert not rect.is_cubic()
    with pytest.raises(ValueError):
        _ = rect.spacing


def test_grid_axes_start_at_zero():
    g = Grid.line(8, 2.0)
    assert np.allclose(g.axes()[0], np.arange(8) * 0.25)


def test_field_shape_checked():
    g = Grid.line(8, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(7))


def test_plane_wave_field_is_periodic():
    g = Grid.line(16, 2 * math.pi)
    f = plane_wave_field(g, k=3.0, omega=1.0, t=0.7)
    # mode 3 fits the box: wrapping by one sample keeps the same values
    shifted = plane_wave_field(g, 3.0, 1.0, 0.7).values
    assert np.allclose(np.roll(f.values, 16), shifted)
    assert np.allclose(np.abs(f.values), 1.0)


def summed_phase_wave(grid, k, omega, t=0.0, amplitude=1.0):
    """Reference: one exp of the phase summed on the full meshgrid."""
    phase = -omega * t
    for kx, x in zip(k, grid.meshgrid()):
        phase = phase + kx * x
    return amplitude * np.exp(1j * phase)


WAVES = [  # (k, omega, t, amplitude)
    ((3.0,), 1.0, 0.7, 1.0),
    ((-2.5,), 0.0, 0.0, 0.8),
    ((1.0,), 2.0, 1.3, 0.3 - 0.4j),
]


@pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 8, 8)])
@pytest.mark.parametrize("k, omega, t, amplitude", WAVES)
def test_a_wave_along_one_axis_is_one_exp_of_the_phase_bitwise(
        shape, k, omega, t, amplitude):
    # every other axis joins by exp(0j) = 1 exactly; the time phase sits
    # on the first axis, so a wave along another axis is exact at t = 0
    g = Grid(shape, (2 * math.pi,) * len(shape))
    for axis in range(len(shape)):
        kvec = [0.0] * len(shape)
        kvec[axis] = k[0]
        tt = t if axis == 0 else 0.0
        got = plane_wave_field(g, kvec, omega, tt, amplitude).values
        assert got.tobytes() == summed_phase_wave(g, kvec, omega, tt,
                                                  amplitude).tobytes()


@pytest.mark.parametrize("shape", [(64, 48), (16, 16, 16), (4, 5, 4, 6)])
def test_a_multi_axis_plane_wave_is_one_exp_of_the_phase_up_to_rounding(shape):
    # the summed phase itself rounds to an ulp of its largest value
    g = Grid(shape, (2 * math.pi,) * len(shape))
    k = [3.0, -2.0, 1.0, 2.0][: len(shape)]
    got = plane_wave_field(g, k, 1.7, 0.45, 0.6 + 0.2j).values
    want = summed_phase_wave(g, k, 1.7, 0.45, 0.6 + 0.2j)
    largest = 2 * math.pi * sum(map(abs, k)) + 1.7 * 0.45
    assert np.max(np.abs(got - want)) <= 2 * np.spacing(largest)


def test_plane_wave_field_needs_a_wavenumber_per_axis():
    with pytest.raises(DomainError, match="k has 1 components for 3 axes"):
        plane_wave_field(Grid.cube(8, 1.0), 2.0, 0.0)
    # extra components are ignored
    line = plane_wave_field(Grid.line(8, 1.0), (2.0, 5.0, 7.0), 0.0)
    assert line.values.tobytes() == plane_wave_field(
        Grid.line(8, 1.0), 2.0, 0.0).values.tobytes()


def test_binary_round_trip_bytes_and_values(tmp_path):
    g = Grid.cube(8, 2 * math.pi)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = ScalarField(g, values, time_stamp=0.125)
    blob = field_to_bytes(f)
    back = field_from_bytes(blob)
    assert back.grid == g
    assert back.time_stamp == 0.125
    assert np.array_equal(back.values, f.values)
    assert field_to_bytes(back) == blob

    path = tmp_path / "field.bin"
    save_field(path, f)
    loaded = load_field(path)
    assert np.array_equal(loaded.values, f.values)


def test_binary_round_trip_keeps_signed_zeros_and_infinite_parts():
    g = Grid.cube(8, 2 * math.pi)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    values[0, 0, :4] = [complex(-0.0, 1.0), complex(1.0, -0.0),
                        complex(1.0, math.inf), complex(-math.inf, -0.0)]
    blob = field_to_bytes(ScalarField(g, values))
    # the documented layout: row-major (re, im) little-endian float64 pairs
    pairs = np.empty(2 * values.size, dtype="<f8")
    pairs[0::2], pairs[1::2] = values.real.ravel(), values.imag.ravel()
    assert blob[32:] == pairs.tobytes()
    back = field_from_bytes(blob)
    assert field_to_bytes(back) == blob
    first = back.values[0, 0, :4]
    assert np.array_equal(np.signbit(first.real), [True, False, False, True])
    assert np.array_equal(np.signbit(first.imag), [False, True, False, True])
    assert first[2].real == 1.0 and first[2].imag == math.inf


def test_binary_header_layout():
    g = Grid.line(8, 4.0)
    f = ScalarField(g, np.arange(8, dtype=complex), time_stamp=2.0)
    blob = field_to_bytes(f)
    dims = int.from_bytes(blob[0:8], "little")
    points = int.from_bytes(blob[8:16], "little")
    spacing = np.frombuffer(blob[16:24], dtype="<f8")[0]
    stamp = np.frombuffer(blob[24:32], dtype="<f8")[0]
    assert (dims, points, spacing, stamp) == (1, 8, 0.5, 2.0)
    payload = np.frombuffer(blob[32:], dtype="<f8")
    assert payload.size == 16
    assert np.array_equal(payload[0::2], np.arange(8.0))  # interleaved re, im
    assert np.all(payload[1::2] == 0.0)


@pytest.mark.parametrize("blob", [
    b"abc",  # shorter than the header
    field_to_bytes(ScalarField(Grid.line(8, 1.0), np.ones(8)))[:-1],
    (4).to_bytes(8, "little") + bytes(24),  # four axes
])
def test_malformed_blob_raises_format_error(blob):
    with pytest.raises(FormatError):
        field_from_bytes(blob)


def header_blob(dims=1, points=8, spacing=0.5, stamp=0.0):
    """A header and a payload of the size it declares, all zeros."""
    size = max(16 * points**dims, 0)
    return struct.pack("<qqdd", dims, points, spacing, stamp) + bytes(size)


@pytest.mark.parametrize("header, named", [
    ({"spacing": math.nan}, "spacing"),
    ({"spacing": -0.5}, "spacing"),
    ({"spacing": 0.0}, "spacing"),
    ({"spacing": math.inf}, "spacing"),
    ({"spacing": 1e308}, "spacing"),  # the axis length overflows
    ({"points": 3}, "points"),
    ({"points": 0}, "points"),
    ({"points": -2, "dims": 2}, "points"),  # 16 (-2)^2 bytes of payload
    ({"stamp": math.nan}, "time stamp"),
])
def test_malformed_header_raises_format_error_naming_its_field(header, named):
    with pytest.raises(FormatError, match=named):
        field_from_bytes(header_blob(**header))


def test_non_cubic_serialization_rejected():
    f = ScalarField(Grid((8, 16), (1.0, 2.0)), np.zeros((8, 16)))
    with pytest.raises(ValueError):
        field_to_bytes(f)


def test_values_are_a_read_only_view_of_the_callers_array():
    g = Grid.line(8, 1.0)
    values = np.arange(8, dtype=complex) - 3.5j
    f = ScalarField(g, values)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        f.values *= 2
    assert np.shares_memory(f.values, values)  # no copy
    values[1] = 5.0  # the caller's own array stays writable
    assert values.flags.writeable


def test_max_abs_is_the_peak_magnitude():
    g = Grid((8, 6), (1.0, 2.0))
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = ScalarField(g, values)
    assert f.max_abs() == np.max(np.abs(values))


def test_with_values_and_field_from_bytes_give_read_only_fields():
    g = Grid.line(8, 2.0)
    f = ScalarField(g, np.ones(8), time_stamp=0.5)
    doubled = f.with_values(2 * f.values)
    assert doubled.max_abs() == 2.0 and doubled.time_stamp == 0.5
    assert not doubled.values.flags.writeable
    back = field_from_bytes(field_to_bytes(doubled))
    assert np.array_equal(back.values, doubled.values)
    assert back.max_abs() == 2.0
    assert not back.values.flags.writeable


@pytest.mark.parametrize("shape, axis", [
    ((7,), 0), ((5, 6), 0), ((5, 6), 1), ((4, 5, 6), 1), ((4, 5, 6), 2)])
@pytest.mark.parametrize("op", [np.subtract, np.divide, np.logical_or])
def test_periodic_op_is_the_rolled_op_bitwise(shape, axis, op):
    rng = np.random.default_rng(len(shape) + axis)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    if op is np.logical_or:
        a, b = a.real > 0.5, b.real > 0.5
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            rolled = op(np.roll(a, -da, axis), np.roll(b, -db, axis))
            got = periodic_op(op, a, b, axis, da, db)
            assert got.dtype == rolled.dtype
            assert got.tobytes() == rolled.tobytes()


def test_differences_are_the_rolled_stencils_bitwise():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 7, 8)) + 1j * rng.standard_normal((6, 7, 8))
    for axis in range(3):
        ahead, behind = np.roll(v, -1, axis), np.roll(v, 1, axis)
        assert central_difference(v, axis, 0.3).tobytes() \
            == ((ahead - behind) / (2 * 0.3)).tobytes()
        assert second_difference(v, axis, 0.3).tobytes() \
            == ((ahead - 2 * v + behind) / 0.3**2).tobytes()


def test_second_difference_matches_the_stencil_symbol():
    # exp(ikx) is an eigenfunction: symbol -(2/h sin(kh/2))^2
    g = Grid.line(32, 2 * math.pi)
    h, k = g.spacing, 3.0
    f = plane_wave_field(g, k, omega=0.0)
    symbol = -(2 / h * math.sin(k * h / 2)) ** 2
    assert np.allclose(second_difference(f.values, 0, h), symbol * f.values,
                       rtol=0, atol=1e-12 * abs(symbol))


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=160))
def test_any_bytes_give_a_field_or_a_value_error(blob):
    try:
        f = field_from_bytes(blob)
    except ValueError:
        return
    assert isinstance(f, ScalarField)


@settings(max_examples=300, deadline=None)
@given(
    dims=st.integers(-1, 4),
    points=st.integers(-2, 6),
    spacing=st.floats(),
    stamp=st.floats(),
    extra=st.integers(-16, 16),
)
def test_headers_give_a_field_or_a_format_error(dims, points, spacing, stamp,
                                                extra):
    # payloads sized from the header (give or take), so size checks pass
    size = 16 * max(points, 0) ** max(dims, 0) + extra
    blob = struct.pack("<qqdd", dims, points, spacing, stamp) + bytes(max(size, 0))
    try:
        f = field_from_bytes(blob)
    except FormatError:
        return
    assert isinstance(f, ScalarField)
    assert f.grid.shape == (points,) * dims
