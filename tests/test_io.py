import math

import numpy as np
import pytest

from frictionlab.core import Grid
from frictionlab.io import (
    build_params, format_number, profile_args_from, read_config,
    read_initial_csv, write_csv,
)


class TestFormatNumber:
    @pytest.mark.parametrize("value, expected", [
        (True, "true"),
        (False, "false"),
        (42, "42"),
        (0.0, "0"),
        (-0.0, "0"),
        (1.0, "1"),
        (0.25, "0.25"),
        (math.pi, "3.14159265359"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        ("ok", "ok"),
    ])
    def test_cases(self, value, expected):
        assert format_number(value) == expected

    def test_small_magnitudes_use_exponent_form(self):
        assert format_number(1e-5) == "1.000000000000e-05"
        assert format_number(-3.25e-7) == "-3.250000000000e-07"
        # at the threshold the fixed form still applies
        assert format_number(1e-4) == "0.0001"

    def test_round_trips_through_float(self):
        for value in (0.1, 123.456, 9.999e-5, 1.0 / 3.0):
            assert float(format_number(value)) == pytest.approx(value,
                                                                rel=1e-11)


class TestReadConfig:
    def test_parses_types_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# full-line comment\n"
            "epsilon = 0.05\n"
            "grid_n = 256        # trailing comment\n"
            "profile = bump\n"
            "flag = true\n"
            "eps_list = 0.2, 0.1, 0.05\n"
            "\n")
        cfg = read_config(path)
        assert cfg == {
            "epsilon": 0.05,
            "grid_n": 256,
            "profile": "bump",
            "flag": True,
            "eps_list": (0.2, 0.1, 0.05),
        }
        assert isinstance(cfg["grid_n"], int)

    def test_rejects_bare_token(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon = 0.05\njust-a-token\n")
        with pytest.raises(ValueError, match="2"):
            read_config(path)


class TestWriteCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [[0.5, 1e-6, True, "plain"], [float("nan"), 0.0, False, "x"]]
        p1 = write_csv(tmp_path / "a.csv", ["c1", "c2", "c3", "c4"], rows)
        p2 = write_csv(tmp_path / "b.csv", ["c1", "c2", "c3", "c4"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == "c1,c2,c3,c4"
        assert "1.000000000000e-06" in text
        assert "\r\n" in p1.read_bytes().decode()

    def test_creates_parent_directories(self, tmp_path):
        out = write_csv(tmp_path / "deep" / "nest" / "t.csv",
                        ["a"], [[1.0]])
        assert out.exists()


class TestBuildParams:
    def test_defaults_give_torus(self):
        p = build_params({})
        assert p.grid.kind == "torus"
        assert p.grid.n == 128
        assert p.epsilon == 0.1 and p.gamma == 2.0

    def test_overrides_and_line_grid(self):
        p = build_params({"grid_left": -1.0, "grid_n": 64, "epsilon": 0.05})
        assert p.grid.kind == "torus"
        assert p.grid.x[0] == -1.0
        assert p.grid.n == 64 and p.epsilon == 0.05
        # the line-grid keys are gone: naming one is an error
        with pytest.raises(ValueError, match="grid_kind, grid_right"):
            build_params({"grid_kind": "line", "grid_right": 3.0})

    def test_profile_args_split(self):
        name, args = profile_args_from({
            "profile": "vacuum-ramp", "profile_width": 0.4,
            "profile_touch": 2, "epsilon": 0.1})
        assert name == "vacuum-ramp"
        assert args == {"width": 0.4, "touch": 2}

    def test_profile_defaults_to_cosine(self):
        assert profile_args_from({}) == ("cosine", {})


class TestReadInitialCsv:
    def test_header_skipped_and_interpolated(self, tmp_path):
        grid = Grid.line(0.0, 1.0, 11)
        path = tmp_path / "init.csv"
        path.write_text("x,sigma\n0.0,1.0\n1.0,3.0\n0.5,2.0\n")
        vals = read_initial_csv(path, grid)
        np.testing.assert_allclose(vals, 1.0 + 2.0 * grid.x, atol=1e-14)

    def test_rows_sorted_before_interpolation(self, tmp_path):
        grid = Grid.line(0.0, 1.0, 9)
        path = tmp_path / "shuffled.csv"
        path.write_text("0.75,1.75\n0.0,1.0\n1.0,2.0\n0.25,1.25\n")
        vals = read_initial_csv(path, grid)
        np.testing.assert_allclose(vals, 1.0 + grid.x, atol=1e-14)

    @pytest.mark.parametrize("row", ["nan,1.5", "0.5,inf", "-inf,1.5",
                                     "0.5,nan"])
    def test_non_finite_row_is_named(self, tmp_path, row):
        # refused with its file and line, not sorted last and interpolated
        path = tmp_path / "init.csv"
        path.write_text(f"x,v\n0.0,1.0\n{row}\n1.0,2.0\n")
        with pytest.raises(ValueError, match="init.csv:3: .*must be finite"):
            read_initial_csv(path, Grid.line(0.0, 1.0, 9))

    @pytest.mark.parametrize("row", ["1.0,abc", "0.5", "0.5,1.5,2.5",
                                     "0.5,", "x,v"])
    def test_malformed_row_is_named(self, tmp_path, row):
        # a later row that is not two numbers was once dropped, and the
        # rest interpolated without it
        path = tmp_path / "init.csv"
        path.write_text(f"x,v\n0.0,1.0\n{row}\n1.0,2.0\n")
        with pytest.raises(ValueError,
                           match="init.csv:3: expected two numbers"):
            read_initial_csv(path, Grid.line(0.0, 1.0, 9))

    def test_blank_and_comment_rows_skipped(self, tmp_path):
        # the header is the first row that is neither blank nor a comment
        grid = Grid.line(0.0, 1.0, 9)
        path = tmp_path / "init.csv"
        path.write_text("# tabulated sigma0\n\nx,v\n0.0,1.0\n\n"
                        "  # midpoint\n0.5,1.5\n , \n1.0,2.0\n")
        vals = read_initial_csv(path, grid)
        np.testing.assert_allclose(vals, 1.0 + grid.x, atol=1e-14)

    def test_numeric_first_row_is_data(self, tmp_path):
        # only a first row that is not all numbers is a header
        path = tmp_path / "init.csv"
        path.write_text("0.0,1.0,2.0\n0.5,1.5\n1.0,2.0\n")
        with pytest.raises(ValueError, match="init.csv:1: expected two"):
            read_initial_csv(path, Grid.line(0.0, 1.0, 9))

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,v\n0.0,1.0\n")
        with pytest.raises(ValueError, match="two"):
            read_initial_csv(path, Grid.line(0.0, 1.0, 9))
