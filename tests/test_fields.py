import math

import numpy as np
import pytest

from hjwave import (
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


def test_non_cubic_serialization_rejected():
    f = ScalarField(Grid((8, 16), (1.0, 2.0)), np.zeros((8, 16)))
    with pytest.raises(ValueError):
        field_to_bytes(f)
