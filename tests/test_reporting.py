import csv
import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hjwave import NumericalError, cli, reporting
from hjwave.fields import Grid, plane_wave_field
from hjwave.kinematics import PhysicalConstants
from hjwave.limits import LimitStudyConfig, run_limit_study
from hjwave.mechanics import Potential, integrate_newton
from hjwave.reporting import (
    BLOCK_ROWS,
    _MIN_POW,
    _float_text,
    _scaled,
    _significands,
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


def _neighbours(x, n):
    """x and the n doubles on each side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


# Under the first exponent guess e = floor(log10(x)), these scale to a
# double-double just below 1e16, so e must be lowered by one.
LOW_WORD_TRAPS = [math.nextafter(1e-19, 0), math.nextafter(0.1, 0)]
TIES = [1e15 + 0.25, 1e15 + 0.75]  # 17 digits round exactly half way
_EDGES = [
    *(y for k in range(-300, 301) for y in _neighbours(float(f"1e{k}"), 4)),
    *(y for top in (1e16, 1e17) for y in _neighbours(top, 40)[1:41]),
    *TIES, 2.0**52 + 0.5,
    *_neighbours(1e-280, 1), *_neighbours(1e280, 1),
    5e-324, 0.0, math.nan, math.inf, *LOW_WORD_TRAPS,
]
EDGE_FLOATS = _EDGES + [-x for x in _EDGES]


def _is_tie(x):
    """Whether x's exact decimal value lies half way between two 17-digit
    decimals."""
    digits = Decimal(x).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def _kernel_lines(x):
    return _float_text([np.asarray(x, dtype=float)], slice(None)).splitlines()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0x3BFD83C94FB6D2AB])  # nextafter(1e-19, 0)
def test_float_kernel_matches_fmt_float_on_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_lines(x) == [fmt_float(v) for v in x]


def test_float_kernel_matches_fmt_float_on_edge_table():
    assert _kernel_lines(EDGE_FLOATS) == [fmt_float(v) for v in EDGE_FLOATS]


def test_significands_are_the_correctly_rounded_digits():
    # D and the exponent against format(.16e) where the kernel proves
    # them, which is every finite nonzero cell in range but the ties
    x = np.array([v for v in EDGE_FLOATS if math.isfinite(v) and v != 0])
    a = np.abs(x)
    digits, exp, proven = _significands(a)
    tie = np.array([_is_tie(v) for v in a.tolist()])
    assert tie[np.isin(a, TIES)].all() and tie.sum() > 2 * len(TIES)
    assert (proven == ((a >= 1e-280) & (a <= 1e280) & ~tie)).all()
    for v, d, e in zip(x[proven].tolist(), digits[proven].tolist(),
                       exp[proven].tolist()):
        mantissa, power = format(abs(v), ".16e").split("e")
        assert (d, e) == (int(mantissa.replace(".", "")), int(power))


def test_exponent_range_reads_both_words():
    # under the first guess e = -1, nextafter(0.1, 0) scales to hi = 1e16
    # with lo < 0: 17 digits need e = -2, and a check of hi alone keeps -1
    x = math.nextafter(0.1, 0)
    hi, lo = _scaled(np.array([x]), np.array([17 - _MIN_POW]))
    assert hi[0] == 1e16 and lo[0] < 0
    cells = LOW_WORD_TRAPS + [-x for x in LOW_WORD_TRAPS]
    assert _kernel_lines(cells) == [fmt_float(x) for x in cells]


def test_float_tables_are_built_on_first_use(tmp_path):
    # a fresh interpreter: no kernel table at import or for a table of
    # tuples and integers (limit-study's), all of them for a float column
    code = """if True:
        import numpy as np
        from hjwave import reporting as r
        tables = (r._powers, r._digit_tables, r._layout)
        built = lambda: [f.cache_info().currsize for f in tables]
        assert built() == [0, 0, 0], built()
        r.write_csv(r"{0}", ["c", "gap"], [(4.0, 8.0), (0.5, 0.125)])
        r.write_csv(r"{0}", ["step"], [np.arange(3)])
        assert built() == [0, 0, 0], built()
        r.write_csv(r"{0}", ["t"], [np.array([0.5, 1e-7, 3.0])])
        assert built()[:2] == [1, 1] and built()[2] > 0, built()
    """
    res = subprocess.run([sys.executable, "-c", code.format(tmp_path / "t.csv")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_write_csv_memory_is_one_block(tmp_path):
    # 100k rows of four float columns: a kernel over the whole table would
    # hold tens of MB; block by block it holds one block's temporaries
    rows = 100_000
    t = np.linspace(0.0, 1.0, rows)
    columns = [t, np.sin(7 * t), -1e-7 * np.cos(3 * t), np.exp(50 * t)]
    write_csv(tmp_path / "warm.csv", ["t"], [t[:10]])  # tables built here
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["t", "a", "b", "c"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == rows + 1


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
    st.sampled_from(EDGE_FLOATS),
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
    "text": (st.text(st.sampled_from('ab ,"\n\r\'-.0e%()s'), max_size=8),
             None),
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


def test_write_csv_integral_cells_and_percent_signs(tmp_path):
    # integral cells take %.1f in the block template: put them in the rows
    # at both sides of the first block boundary and in the first and last
    # rows, next to a column integral in every row, one integral in every
    # row but those, and text and a header name that look like templates
    rows = 2 * BLOCK_ROWS + 1
    edges = [0, BLOCK_ROWS - 1, BLOCK_ROWS, rows - 1]
    integral = [0.0, -0.0, 3.0, 1e16, 1e17, -1.2e17]
    cells = np.repeat(np.linspace(0.1, 7.3, rows)[:, None], len(integral), 1)
    cells[edges] = integral
    mostly = np.arange(rows, dtype=float)
    mostly[edges] += 0.5
    text = [("%s", "%%", "%(a)s", "50% off")[i % 4] for i in range(rows)]
    header = [f"x{j}" for j in range(len(integral))] + [
        "n%", "mostly", "text", "count"]
    columns = [*cells.T, np.arange(rows, dtype=float), mostly, text,
               np.arange(rows)]
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    expected = _row_oracle(header, columns)
    assert path.read_bytes() == expected
    lines = expected.decode().splitlines()
    assert lines[0] == "x0,x1,x2,x3,x4,x5,n%,mostly,text,count"
    row = "0.0,-0.0,3.0,10000000000000000.0,1e+17,-1.2e+17"
    assert lines[1] == row + ",0.0,0.5,%s,0"
    for at in edges[2:]:
        assert lines[at + 1] == row + f",{at}.0,{at}.5,%s,{at}"


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
        np.array([[1.0, 2.0], [3.0, np.nan]]), np.array([np.inf]),
        np.array([1.0, -np.inf]), np.array([[1j, complex(1.0, np.inf)]]),
    ])
    def test_json_refuses_non_finite(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(NumericalError, match="rows: value"):
            write_json(path, {"rows": [{"value": value}]})
        assert not path.exists()

    @pytest.mark.parametrize("arr", [
        np.arange(6.0).reshape(2, 3), np.arange(4), np.array([1 + 2j, -0.0]),
        np.zeros((2, 0)), np.array([True, False]), np.array(2.5),
        np.array(-0.0), np.array(3), np.array(1 - 2j), np.array(True),
    ])
    def test_json_array_is_its_tolist(self, arr):
        # nested lists at any shape; a 0-d array is its scalar
        assert json_dumps({"a": arr}) == json_dumps({"a": arr.tolist()})

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

    def test_dataclass_fields_are_read_once_per_class(self, monkeypatch):
        @dataclasses.dataclass
        class Record:
            b: float
            a: int

        calls = []

        def counting(obj):
            calls.append(obj)
            return dataclasses.fields(obj)

        monkeypatch.setattr(reporting, "fields", counting)
        records = [Record(0.5 * i, i) for i in range(7)]
        assert json_dumps(records) == json_dumps(
            [{"b": r.b, "a": r.a} for r in records])
        assert calls == [Record]

    def test_negative_zero_survives_json_round_trip(self):
        assert fmt_float(-0.0) == "-0.0"
        assert math.copysign(1.0, json.loads(fmt_float(-0.0))) == -1.0
