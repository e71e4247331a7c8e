import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjwave import (
    DomainError,
    Grid,
    InsufficientDataError,
    LimitStudyConfig,
    PhysicalConstants,
    ScalarField,
    dispersion_omega,
    factor_rest_energy,
    fit_order,
    plane_wave_field,
    run_limit_study,
    solve_plane_wave,
    solve_relativistic,
)
from hjwave import limits, solvers, verify
from hjwave.limits import SCHRODINGER_STEPS
from hjwave.solvers import MAX_STEPS
from hjwave.reporting import write_csv, write_json

NAT = PhysicalConstants()


def _polyfit_order(scales, errors):
    """np.polyfit's log-log slope and rms log10 residual: the oracle."""
    x, y = np.log10(scales), np.log10(errors)
    slope, intercept = np.polyfit(x, y, 1)
    return slope, math.sqrt(float(np.mean((y - (slope * x + intercept))**2)))


class TestFitOrder:
    @settings(max_examples=200, deadline=None)
    @given(h0=st.floats(1e-6, 1e3), ratio=st.floats(1.25, 4.0),
           errors=st.lists(st.floats(1e-15, 1e5), min_size=2, max_size=8))
    def test_matches_polyfit(self, h0, ratio, errors):
        # a refinement sequence h0, h0/r, h0/r^2 ... against any errors;
        # within 1e-12 relative, and absolute near a zero slope or residual
        scales = [h0 / ratio**i for i in range(len(errors))]
        fit = fit_order(scales, errors)
        slope, rms = _polyfit_order(scales, errors)
        assert fit.order == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.log10_residual == pytest.approx(rms, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_gives_nan(self, bad):
        fit = fit_order([1.0, 0.5, 0.25], [1.0, bad, 0.0625])
        assert math.isnan(fit.order) and math.isnan(fit.log10_residual)

    @pytest.mark.parametrize("scales, errors, message", [
        ([1.0], [1.0], "at least two"),
        ([1.0, 0.5], [1.0], "at least two"),
        ([1.0, 0.0], [1.0, 0.5], "positive"),
        ([1.0, 0.5], [1.0, -0.5], "positive"),
        ([0.5, 0.5, 0.5], [1.0, 0.5, 0.25], "equal logs"),
    ])
    def test_refused_inputs(self, scales, errors, message):
        with pytest.raises(ValueError, match=message):
            fit_order(scales, errors)


class TestRestEnergyFactoring:
    def test_time_zero_is_identity(self):
        grid = Grid.line(16, 2 * math.pi)
        psi = plane_wave_field(grid, 2.0, 1.5, t=0.3)
        out = factor_rest_energy(psi, NAT, t=0.0)
        assert np.array_equal(out.values, psi.values)

    def test_round_trip_is_near_exact(self):
        grid = Grid.line(64, 2 * math.pi)
        rng = np.random.default_rng(1)
        psi = ScalarField(
            grid, rng.standard_normal(64) + 1j * rng.standard_normal(64)
        )
        consts = PhysicalConstants(1.0, 3.0, 2.0)
        t = 0.7
        factored = factor_rest_energy(psi, consts, t)
        back = factored.values * np.exp(-1j * consts.rest_frequency * t)
        assert np.max(np.abs(back - psi.values)) <= 1e-15 * psi.max_abs()

    def test_factored_wave_rotates_at_reduced_frequency(self):
        consts = PhysicalConstants(1.0, 4.0, 1.0)
        k, t = 1.0, 0.05
        omega = dispersion_omega(k, consts)
        grid = Grid.line(64, 2 * math.pi)
        psi = plane_wave_field(grid, k, omega, t=t)
        psi0 = factor_rest_energy(psi, consts, t)
        reduced = omega - consts.rest_frequency
        expected = plane_wave_field(grid, k, reduced, t=t)
        assert np.max(np.abs(psi0.values - expected.values)) <= 1e-12


class TestConfigValidation:
    def test_too_few_speeds(self):
        with pytest.raises(InsufficientDataError):
            LimitStudyConfig(c_values=(4.0, 8.0, 16.0))

    def test_non_ascending(self):
        with pytest.raises(DomainError):
            LimitStudyConfig(c_values=(4.0, 8.0, 8.0, 16.0))

    def test_expansion_parameter_bound(self):
        with pytest.raises(DomainError):
            LimitStudyConfig(k=5.0, c_values=(4.0, 8.0, 16.0, 32.0))

    @pytest.mark.parametrize("k", [1e-300, 1e300, math.inf])
    def test_k_square_out_of_range(self, k):
        with pytest.raises(DomainError, match="k = .* is out of range"):
            LimitStudyConfig(k=k, m0=2 * k, c_values=(4.0, 8.0, 16.0, 32.0))

    @pytest.mark.parametrize("c_values, message", [
        ((1e154, 2e154, 4e154, 8e154), r"c = 2e\+154 .* square overflows"),
        ((1e-200, 1e-199, 1e-198, 1e-197), "c = 1e-200 .* square underflows"),
    ])
    def test_c_square_out_of_range(self, c_values, message):
        with pytest.raises(DomainError, match=message):
            LimitStudyConfig(c_values=c_values, evolution_time=1e-300)

    @pytest.mark.parametrize("time", [0.0, math.inf, math.nan])
    def test_time_positive_and_finite(self, time):
        with pytest.raises(DomainError, match="positive and finite"):
            LimitStudyConfig(evolution_time=time)


class TestFrequencyGap:
    def test_closed_form_against_naive_oracle(self):
        cfg = LimitStudyConfig(evolution_time=1e-4)
        report = run_limit_study(cfg)
        for row in report.rows:
            x = 1.0 / row.c  # hbar k / (m0 c) in natural units, k = 1
            mu = row.c**2
            naive = abs(mu * (math.sqrt(1 + x * x) - 1) - 0.5)
            assert row.frequency_gap == pytest.approx(naive, rel=1e-9)

    def test_leading_term_matches_taylor_oracle(self):
        cfg = LimitStudyConfig(evolution_time=1e-4)
        report = run_limit_study(cfg)
        last = report.rows[-1]  # c = 128, x = 1/128: higher orders < 1e-4
        leading = 1.0 / (8.0 * last.c**2)  # hbar^3 k^4 / (8 m0^3 c^2)
        assert last.frequency_gap == pytest.approx(leading, rel=1e-4)

    def test_gap_strictly_decreasing(self):
        report = run_limit_study(LimitStudyConfig(evolution_time=1e-4))
        gaps = [r.frequency_gap for r in report.rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert not any("not strictly decreasing" in w for w in report.warnings)


class TestStudyRuns:
    def test_small_sweep_orders(self):
        cfg = LimitStudyConfig(
            c_values=(4.0, 8.0, 16.0, 32.0), evolution_time=5e-4
        )
        report = run_limit_study(cfg)
        assert report.frequency_fit is not None
        assert 1.85 <= report.frequency_fit.order <= 2.1
        assert report.field_fit is not None
        assert 1.8 <= report.field_fit.order <= 2.2
        assert any("span only" in w for w in report.warnings)

    @pytest.mark.parametrize(
        "cfg",
        [LimitStudyConfig(), LimitStudyConfig(evolution_time=1e-4)],
        ids=["default", "t=1e-4"],
    )
    def test_field_order_is_two(self, cfg):
        # a stepped leapfrog's accumulated rounding pulled these fits to
        # 1.956 and 1.904; the closed form leaves the O(c^-2) gap intact
        report = run_limit_study(cfg)
        assert 1.95 <= report.field_fit.order <= 2.05

    def test_rows_past_the_step_bound_run(self):
        # at hbar = 0.3, m0 = 2.5 the c = 128 row takes 2.0e8 steps; the
        # study reads final fields only, so the bound on rows does not apply
        report = run_limit_study(LimitStudyConfig(hbar=0.3, m0=2.5))
        assert max(r.steps for r in report.rows) > 10 * MAX_STEPS
        assert 1.95 <= report.frequency_fit.order <= 2.05
        assert 1.95 <= report.field_fit.order <= 2.05
        assert report.warnings == []

    def test_rest_mode_short_circuit(self):
        cfg = LimitStudyConfig(k=0.0, evolution_time=1e-3)
        report = run_limit_study(cfg)
        assert all(r.frequency_gap == 0.0 for r in report.rows)
        assert all(r.field_gap == 0.0 for r in report.rows)
        assert report.frequency_fit is None
        assert any("k = 0" in w for w in report.warnings)

    def test_report_files(self, tmp_path):
        cfg = LimitStudyConfig(
            c_values=(4.0, 8.0, 16.0, 32.0), evolution_time=2e-4
        )
        report = run_limit_study(cfg)
        csv_path = tmp_path / "study.csv"
        json_path = tmp_path / "study.json"
        write_csv(csv_path, *report.table())
        write_json(json_path, report)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "c,freq_gap,field_gap,x_param"
        assert len(lines) == 5
        import json

        summary = json.loads(json_path.read_text())
        assert set(summary) == {"rows", "frequency_fit", "field_fit", "warnings"}
        assert summary["frequency_fit"]["order"] == pytest.approx(
            report.frequency_fit.order
        )
        for row in summary["rows"]:
            assert isinstance(row["steps"], int) and row["steps"] >= 1
            assert row["steps"] * row["dt"] == pytest.approx(2e-4, rel=1e-12)


class TestPhaseRounding:
    # rounding takes 2.5e-7 and 1.0e-6 of a field gap here (and 1.2e-3 in
    # TestStudyRuns.test_rows_past_the_step_bound_run, also warning-free)
    @pytest.mark.parametrize("cfg", [
        LimitStudyConfig(),
        LimitStudyConfig(evolution_time=1e-4, hbar=0.7),
    ], ids=["default", "t=1e-4,hbar=0.7"])
    def test_no_warning_below_the_share(self, cfg):
        assert run_limit_study(cfg).warnings == []

    def test_row_swamped_by_rounding_is_named(self):
        # omega t eps is 1.6e-2 of the c = 2048 gap and 1.13 of c = 16384's
        report = run_limit_study(LimitStudyConfig(
            c_values=(4.0, 8.0, 16.0, 2048.0, 16384.0)))
        (warning,) = [w for w in report.warnings if "rounding" in w]
        assert warning.startswith("c = 16384: phase rounding 1.49e-11 "
                                  "exceeds 0.1 of the field gap 1.32e-11")
        assert report.field_fit.order < 1.8  # what the warning explains


def test_study_computes_no_per_step_rows(monkeypatch):
    # Each row's field gap is the one that a solve_plane_wave run gives, bit
    # for bit, though the study samples the plane wave once for all rows
    for cfg in (LimitStudyConfig(), LimitStudyConfig(hbar=0.3, m0=2.5),
                LimitStudyConfig(c_values=(4.0, 8.0, 16.0, 1024.0))):
        grid = Grid.line(cfg.grid_points, 2 * math.pi / cfg.k)
        tee = cfg.evolution_time
        schrodinger = solve_plane_wave(
            "schrodinger", grid, cfg.k,
            PhysicalConstants(cfg.hbar, 1.0, cfg.m0),
            tee / SCHRODINGER_STEPS, SCHRODINGER_STEPS)[0].final.values
        for row in run_limit_study(cfg).rows:
            consts = PhysicalConstants(cfg.hbar, row.c, cfg.m0)
            rel = solve_plane_wave("relativistic", grid, cfg.k, consts,
                                   row.dt, row.steps)[0].final
            psi0 = factor_rest_energy(rel, consts, tee).values
            assert float(np.max(np.abs(psi0 - schrodinger))) == row.field_gap

    # Reading every row's diagnostics, or never computing them, gives the
    # same reports: the study and its verify check read final fields only.
    calls = []

    def eager(*args):
        report = solve_relativistic(*args)
        calls.append(report.diagnostics)
        return report

    monkeypatch.setattr(limits, "solve_relativistic", eager)
    expected = run_limit_study(LimitStudyConfig())
    expected_check = verify.check_limit_frequency_order(0)
    monkeypatch.undo()
    assert len(calls) == 2 * len(LimitStudyConfig().c_values)

    def refuse(*args):
        raise AssertionError("per-step rows computed")

    monkeypatch.setattr(solvers, "_exponential_sums", refuse)
    assert run_limit_study(LimitStudyConfig()) == expected
    check = verify.check_limit_frequency_order(0)
    assert check.passed and check == expected_check

