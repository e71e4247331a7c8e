import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hjwave import NumericalError, cli
from hjwave.fields import Grid, plane_wave_field
from hjwave.kinematics import PhysicalConstants
from hjwave.limits import LimitStudyConfig, run_limit_study
from hjwave.mechanics import Potential, integrate_newton
from hjwave.reporting import (
    BLOCK_ROWS,
    fmt_cell,
    fmt_float,
    json_dumps,
    write_csv,
    write_json,
)
from hjwave.solvers import SolverConfig, solve_relativistic, solve_schrodinger


def _old_fmt_float(x):
    """The character-scan rule fmt_float replaced, kept as its oracle."""
    s = format(float(x), ".17g")
    if all(c in "-0123456789" for c in s):
        s += ".0"
    return s


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(1e16)
@example(1e17)
@example(-1e16)
@example(-1e17)
def test_fmt_float_decimal_marker_matches_character_scan(x):
    assert fmt_float(x) == _old_fmt_float(x)


def _row_oracle(header, columns) -> bytes:
    """The row-by-row writer write_csv replaced, kept as its oracle."""
    lines = [",".join(header)]
    lines += [",".join(fmt_cell(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


FLOAT_CELLS = st.one_of(
    st.floats(),
    st.integers(-10**20, 10**20).map(float),  # integral, |x| >= 1e17 too
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and signed zeros
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e17, -1e17]),
)
# column kind -> (cell strategy, array dtype, or None for a list column)
COLUMN_KINDS = {
    "float": (FLOAT_CELLS, np.float64),
    "float32": (st.floats(width=32), np.float32),
    "float list": (FLOAT_CELLS, None),
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "bool": (st.booleans(), np.bool_),
    "bool list": (st.booleans(), None),
    "complex": (st.complex_numbers(), np.complex128),
    "text": (st.text(st.sampled_from('ab ,"\n\r\'-.0e'), max_size=8), None),
}


@st.composite
def csv_tables(draw):
    """A header and columns of one row count around the block size."""
    rows = draw(st.sampled_from([0, 1, BLOCK_ROWS, BLOCK_ROWS + 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)),
                          min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        cells, dtype = COLUMN_KINDS[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=8))
        column = [pool[i % len(pool)] for i in range(rows)]
        columns.append(column if dtype is None
                       else np.array(column, dtype=dtype))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=150, deadline=None)
@given(csv_tables())
def test_write_csv_matches_row_oracle(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, *table)
    assert path.read_bytes() == _row_oracle(*table)


def _failing_dispersion_chain(seed):
    result = cli.verify.check_dispersion_chain(seed)
    return dataclasses.replace(result, passed=False)


NAT = PhysicalConstants()
GRID = Grid.line(64, 2 * math.pi)
WAVE = plane_wave_field(GRID, (1.0, 0.0, 0.0), omega=0.0, t=0.0)
HARMONIC = Potential.harmonic(1.0)


def trajectory_table():
    traj = integrate_newton(HARMONIC, [1.0, 0.0, 0.0], [0.0, 0.5, 0.0], NAT,
                            dt=1e-3, steps=2 * BLOCK_ROWS + 1)
    return traj.table(traj.energies(HARMONIC, NAT))


PRODUCERS = {
    "trajectory": trajectory_table,
    "leapfrog": lambda: solve_relativistic(
        WAVE, WAVE.with_values(-1j * WAVE.values), NAT,
        SolverConfig(dt=1e-3, steps=BLOCK_ROWS + 1)).diagnostics.table(),
    "crank-nicolson": lambda: solve_schrodinger(
        WAVE, NAT, SolverConfig(dt=1e-3, steps=BLOCK_ROWS + 1,
                                scheme="crank_nicolson")).diagnostics.table(),
    "limit-study": lambda: run_limit_study(LimitStudyConfig()).table(),
    "verify-all": lambda: cli.cmd_verify_all(
        {"seed": 4}).files["verify_report.csv"],
    "dispersion": lambda: cli.cmd_dispersion(
        {"k": [0.0, 1.0], "_out": "out"}).files["dispersion.csv"],
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_each_table_writes_the_row_oracle_bytes(tmp_path, monkeypatch, name):
    # one failed check, so that the report holds a false cell
    monkeypatch.setitem(cli.verify.CHECKS, "dispersion-chain",
                        _failing_dispersion_chain)
    header, columns = PRODUCERS[name]()
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    expected = _row_oracle(header, columns)
    assert path.read_bytes() == expected
    text = expected.decode()
    if name == "verify-all":
        assert ",false," in text and '"' in text
    if name == "dispersion":
        assert ",nan," in text


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20)


@given(JSON_TREES)
def test_json_layout_is_the_standard_two_space_indent(tree):
    # floats aside (17 digits here, shortest repr there), the layout is
    # json.dumps's own at indent=2
    assert json_dumps(tree) == json.dumps(tree, indent=2) + "\n"


@given(st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | JSON_TREES,
    lambda children: st.lists(children, max_size=4), max_leaves=20))
def test_json_round_trips_finite_floats(tree):
    assert json.loads(json_dumps(tree)) == tree


class TestReportingHelpers:
    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["step", "time", "norm", "energy"], [[], [], [], []])
        assert path.read_text() == "step,time,norm,energy\n"

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1.0, 2.0], [1.0]]),
        (["a", "b"], [np.zeros(3)]),
    ])
    def test_ragged_or_headless_columns_refused(self, tmp_path, header,
                                                columns):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="one column per header name"):
            write_csv(path, header, columns)
        assert not path.exists()

    def test_float_formatting_round_trips(self):
        for x in (math.pi, 1 / 3, 1e-300, 6.02214076e23):
            assert float(fmt_float(x)) == x

    def test_json_dumps_deterministic(self):
        obj = {"a": 1.5, "b": [1, 2, 3], "c": {"nested": True}, "z": complex(1, -2)}
        assert json_dumps(obj) == json_dumps(obj)
        assert '"z": [1.0, -2.0]' in json_dumps(obj)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -np.inf, complex(0.0, np.nan),
    ])
    def test_json_refuses_non_finite(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(NumericalError, match="rows: value"):
            write_json(path, {"rows": [{"value": value}]})
        assert not path.exists()

    def test_csv_text_cells_quoted(self, tmp_path):
        path = tmp_path / "text.csv"
        cells = ["a, b", 'say "hi"', "two\nlines", "plain"]
        columns = [[cell, number] for cell, number
                   in zip(cells, [1.5, -0.0, 3, True])]
        write_csv(path, ["a", "b", "c", "d"], columns)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b", "c", "d"], cells,
                        ["1.5", "-0.0", "3", "true"]]
        assert path.read_text().endswith('lines",plain\n1.5,-0.0,3,true\n')

    def test_json_strings_and_keys_escaped(self):
        obj = {"tab\tkey": "tab\tvalue", "line\nkey": ["two\nlines"],
               'say "hi"': {'"': "back\\slash \u00e9 \x7f \x01"}}
        assert json.loads(json_dumps(obj)) == obj
        assert json_dumps({"plain": "a b/c"}) == '{\n  "plain": "a b/c"\n}\n'

    def test_dataclass_is_the_object_of_its_fields(self):
        # nested, in field order, with the bytes of its asdict copy
        report = run_limit_study(LimitStudyConfig(
            c_values=(4.0, 8.0, 16.0, 32.0), evolution_time=2e-4))
        assert json_dumps(report) == json_dumps(dataclasses.asdict(report))
        assert list(json.loads(json_dumps(report))) == [
            "rows", "frequency_fit", "field_fit", "warnings"]

    def test_negative_zero_survives_json_round_trip(self):
        assert fmt_float(-0.0) == "-0.0"
        assert math.copysign(1.0, json.loads(fmt_float(-0.0))) == -1.0
