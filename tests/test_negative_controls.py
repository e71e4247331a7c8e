"""A negative control for every acceptance check: evidence that each can fail.

``CONTROLS`` maps each ``verify.CHECKS`` name to named mutations.  A
mutation is a monkeypatch of a ``src/`` function or property, made where
the check reads the name (``verify.planck_energy``, which ``verify``
imports by value, not ``kinematics.planck_energy``); under it the check
must return passed=False with the measure the mutation names outside its
band.  A mutation that no check catches yet carries the ROADMAP item that
will catch it, and runs as xfail(strict=True), so its mark has to go once
that item lands.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from hjwave import fields, limits, mechanics, pde_algebra, solvers, verify
from hjwave.fields import Grid, ScalarField
from hjwave.kinematics import PhysicalConstants
from test_cli import run_cli

# the originals that the mutations below wrap
_hje_spec = pde_algebra._hje_spec
_linearize = pde_algebra.linearize
_eigenvalues = solvers._stencil_eigenvalues
_factor_rest_energy = limits.factor_rest_energy
_field_from_bytes = verify.field_from_bytes
_planck_energy = verify.planck_energy
_de_broglie_momentum = verify.de_broglie_momentum
_group_velocity = verify.group_velocity


def hje_spec_tt_off(consts, dims):
    """The HJE spec with its t-t coefficient 1% off."""
    spec = _hje_spec(consts, dims)
    tt = pde_algebra.PdeTerm(2, (dims + 1, dims + 1), 1.01)
    return pde_algebra.PdeSpec(spec.n, spec.m, (*spec.terms[:-1], tt), spec.b)


def hje_spec_plus_c2_on_x(consts, dims):
    """The HJE spec with +c^2, not -c^2, on the x term."""
    spec = _hje_spec(consts, dims)
    terms = (pde_algebra.PdeTerm(2, (1, 1), consts.c_squared), *spec.terms[1:])
    return pde_algebra.PdeSpec(spec.n, spec.m, terms, spec.b)


def hje_spec_free_term_flipped(consts, dims):
    """The HJE spec with the sign of its free term flipped."""
    spec = _hje_spec(consts, dims)
    return pde_algebra.PdeSpec(spec.n, spec.m, spec.terms, -spec.b)


def linearize_mxx_off(spec, A=None):
    """linearize with M_xx 1% off."""
    lspec = _linearize(spec, A)
    matrix = np.array(lspec.second_order_coeffs)
    matrix[0, 0] *= 1.01
    return pde_algebra.LinearPdeSpec(lspec.n, matrix, lspec.zeroth_coeff)


def field_from_bytes_without_time(blob):
    """The binary reader, dropping the header's time stamp."""
    field = _field_from_bytes(blob)
    return ScalarField(field.grid, field.values)


# a cell volume of N makes the Parseval scale cell_volume / N exactly 1
WITHOUT_PARSEVAL = (Grid, "cell_volume", property(lambda grid: grid.npoints))


@dataclasses.dataclass(frozen=True)
class Mutation:
    name: str
    patches: tuple  # (owner, attribute, replacement) triples
    measure: str  # the label of the measure that must leave its band
    seeds: tuple = (0,)
    survives: str = ""  # why every check passes under it today


CONTROLS = {
    "dispersion-chain": [
        Mutation("tt-coefficient-1pct-off",
                 ((pde_algebra, "_hje_spec", hje_spec_tt_off),),
                 "max relative root error"),
        Mutation("rest-frequency-without-hbar",
                 ((PhysicalConstants, "rest_frequency",
                   property(lambda consts: consts.rest_energy)),),
                 "max relative root error",
                 survives="ROADMAP item 6: the chain checks run only at "
                          "hbar = 1"),
    ],
    "transform-linearize": [
        Mutation("mxx-1pct-off", ((verify, "linearize", linearize_mxx_off),),
                 "wave-operator matrix defect"),
    ],
    "dual-solutions": [
        # both dual actions are evaluated through the spec the chain
        # transforms
        Mutation("plus-c2-on-x",
                 ((pde_algebra, "_hje_spec", hje_spec_plus_c2_on_x),),
                 "particle residual"),
    ],
    "eigen-log-curvature": [
        Mutation("planck-energy-doubled",
                 ((verify, "planck_energy",
                   lambda omega, consts: 2 * _planck_energy(omega,
                                                            consts)),),
                 "energy defect order"),
        Mutation("de-broglie-momentum-with-hbar-squared",
                 ((verify, "de_broglie_momentum",
                   lambda k, consts: consts.hbar * _de_broglie_momentum(
                       k, consts)),),
                 "momentum defect order",
                 survives="ROADMAP item 7: A = hbar/i is assumed, not "
                          "derived, and hbar^2 = hbar at hbar = 1"),
    ],
    "residual-decomposition": [
        # lhs comes from the spec's terms and rhs from linearize's M, so a
        # 1% error in M_xx reads an extrapolated defect of 6.8e-8 to 1.7e-7
        # and a refinement ratio of 1.005 to 1.15 (1.2e-11 and 3.99 when
        # both sides were built from M)
        Mutation("mxx-1pct-off",
                 ((pde_algebra, "linearize", linearize_mxx_off),),
                 "extrapolated defect", seeds=(0, 1, 2)),
    ],
    "wave-solver-order": [
        Mutation("stencil-laplacian-1pct-strong",
                 ((solvers, "_stencil_eigenvalues",
                   lambda grid: 1.01 * _eigenvalues(grid)),),
                 "massless error order"),
        Mutation("leapfrog-energy-without-parseval-scale", (WITHOUT_PARSEVAL,),
                 "energy oscillation over 1e4 steps",
                 survives="ROADMAP item 3: the energy rows are one constant, "
                          "so the oscillation reads 0 whatever the formula"),
    ],
    "schrodinger-cn": [
        Mutation("phase-sign-flipped",
                 ((solvers, "_stencil_eigenvalues",
                   lambda grid: -_eigenvalues(grid)),),
                 "phase error order"),
        Mutation("norm-without-parseval-scale", (WITHOUT_PARSEVAL,),
                 "per-step norm drift over 1e4 steps",
                 survives="ROADMAP item 3: the norm rows are one constant, "
                          "so the drift reads 0 whatever the formula"),
    ],
    "velocity-duality": [
        Mutation("particle-velocity-without-lorentz-factor",
                 ((verify, "particle_velocity",
                   lambda p, consts: np.asarray(p, dtype=float) / consts.m0),),
                 "group-particle gap over 50 k"),
        Mutation("group-velocity-missing-one-c",
                 ((verify, "group_velocity",
                   lambda k, consts: _group_velocity(k, consts) / consts.c),),
                 "vph*vgr-c^2 over 50 k",
                 survives="ROADMAP item 6: the chain checks run only at "
                          "c = 1"),
    ],
    "limit-frequency-order": [
        Mutation("rest-phase-factored-with-wrong-sign",
                 ((limits, "factor_rest_energy",
                   lambda psi, consts, t: _factor_rest_energy(psi, consts,
                                                              -t)),),
                 "field-gap order"),
    ],
    "newton-rk4": [
        # a 0.1% error in every |p| the RK4 loop takes (read at call time)
        # breaks energy conservation, while the free and constant-force
        # rows, whose momenta ignore the velocity, still pass
        Mutation("momentum-magnitude-0.1pct-large",
                 ((mechanics, "hypot", lambda *a: 1.001 * math.hypot(*a)),),
                 "energy order"),
    ],
    "curl-witnesses": [
        Mutation("second-difference-for-the-first",
                 ((mechanics, "central_difference", fields.second_difference),),
                 "rotational defect"),
    ],
    "round-trips": [
        Mutation("binary-reader-drops-the-time-stamp",
                 ((verify, "field_from_bytes", field_from_bytes_without_time),),
                 "binary differing bytes"),
    ],
}


def controls():
    for check, mutations in CONTROLS.items():
        for m in mutations:
            xfail = pytest.mark.xfail(strict=True, raises=AssertionError,
                                      reason=m.survives)
            yield pytest.param(check, m, id=f"{check}/{m.name}",
                               marks=[xfail] if m.survives else [])


@pytest.mark.parametrize("check, mutation", list(controls()))
def test_mutation_fails_its_check(check, mutation, monkeypatch):
    for owner, attribute, replacement in mutation.patches:
        monkeypatch.setattr(owner, attribute, replacement)
    for seed in mutation.seeds:
        result = verify.CHECKS[check](seed)
        assert not result.passed, result.detail
        outside = [m.label for m in result.measures if not m.within()]
        assert mutation.measure in outside, result.detail


def test_every_check_has_a_mutation_it_catches_today():
    assert list(CONTROLS) == list(verify.CHECKS)
    for check, mutations in CONTROLS.items():
        assert any(not m.survives for m in mutations), check


def test_a_check_that_raises_fails_alone(monkeypatch, tmp_path):
    # with the free term flipped the dispersion quadratic has no positive
    # real root, and dispersion-chain raises DomainError
    monkeypatch.setattr(pde_algebra, "_hje_spec", hje_spec_free_term_flipped)
    result = verify.check_dispersion_chain(0)
    assert (result.name, result.passed, result.measures) == (
        "dispersion-chain", False, ())
    assert result.detail == ("DomainError: no positive real root "
                             "(evanescent branch only)")

    res = run_cli("verify-all", "--out", str(tmp_path))
    assert res.returncode == 3, res.stdout + res.stderr
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == list(verify.CHECKS)
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["total"] == 12
    assert report["checks"][0]["detail"] == result.detail
