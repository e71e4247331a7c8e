"""Acceptance suite: the verification criteria, run from ``verify.CHECKS``.

Every configuration, bound and wall-time budget lives in
``hjwave.verify``; ``hjwave verify-all`` runs the same registry.  Each
check runs at seed 0 and prints one ``[name] PASS/FAIL: detail`` line
before asserting, so ``pytest -s tests/test_acceptance.py`` doubles as the
sign-off report.
"""

import time

from hjwave import verify

# criterion number -> the registry checks that certify it
CRITERIA = {
    1: ("dispersion-chain",),
    2: ("transform-linearize",),
    3: ("dual-solutions",),
    4: ("eigen-log-curvature",),
    5: ("residual-decomposition",),
    6: ("wave-solver-order", "schrodinger-cn"),
    7: ("velocity-duality",),
    8: ("limit-frequency-order",),
    9: ("newton-rk4", "curl-witnesses"),
    10: ("round-trips",),
}


def certify(criterion):
    failed = []
    for name in CRITERIA[criterion]:
        start = time.perf_counter()
        result = verify.CHECKS[name](0)
        elapsed = time.perf_counter() - start
        ok = (result.name == name and result.passed
              and elapsed < verify.BUDGET_S[name])
        print(f"[{name}] {'PASS' if ok else 'FAIL'}: {result.detail} "
              f"({elapsed:.2f}s of {verify.BUDGET_S[name]:g}s)")
        if not ok:
            failed.append(f"{result.name}: {result.detail} ({elapsed:.2f}s)")
    assert not failed, "; ".join(failed)


def test_criteria_cover_the_registry_once():
    names = [name for group in CRITERIA.values() for name in group]
    assert sorted(names) == sorted(verify.CHECKS) == sorted(verify.BUDGET_S)


def test_criterion_01_dispersion_chain():
    certify(1)


def test_criterion_02_transform_pipeline():
    certify(2)


def test_criterion_03_dual_solution_certificate():
    certify(3)


def test_criterion_04_eigen_and_log_curvature_orders():
    certify(4)


def test_criterion_05_residual_decomposition():
    certify(5)


def test_criterion_06_solver_fidelity():
    certify(6)


def test_criterion_07_velocity_duality():
    certify(7)


def test_criterion_08_nonrelativistic_limit():
    certify(8)


def test_criterion_09_appendix_a():
    certify(9)


def test_criterion_10_round_trips():
    certify(10)
