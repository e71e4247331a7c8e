import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hjwave import NumericalError
from hjwave.reporting import fmt_float, json_dumps, write_csv, write_json


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


class TestReportingHelpers:
    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["step", "time", "norm", "energy"], [])
        assert path.read_text() == "step,time,norm,energy\n"

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
        write_csv(path, ["a", "b", "c", "d"], [cells, [1.5, -0.0, 3, True]])
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

    def test_negative_zero_survives_json_round_trip(self):
        assert fmt_float(-0.0) == "-0.0"
        assert math.copysign(1.0, json.loads(fmt_float(-0.0))) == -1.0
