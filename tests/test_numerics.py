import importlib
import math
import pathlib
import re

import numpy as np
import pytest

import chapgas
from chapgas import DomainError
from oracles import (
    AccuracyError,
    BracketError,
    ToleranceConfig,
    expand_bracket,
    find_root,
    gcg_velocity_jump,
    integrate,
    polytropic_velocity_jump,
)


def test_integrate_polynomial():
    assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("deg", [0, 1, 3, 5, 7, 9, 11, 13])
def test_integrate_exact_on_rule_degree(deg):
    exact = 2.0 ** (deg + 1) / (deg + 1)
    assert integrate(lambda x, d=deg: x**d, 0.0, 2.0) == pytest.approx(exact, rel=1e-12)


def test_integrate_inverse_square():
    # sqrt(alpha*B) * rho^(-(alpha+3)/2) with alpha = B = 1 has antiderivative -1/rho.
    q = integrate(lambda r: r**-2.0, 0.5, 1.0)
    assert q == pytest.approx(1.0, abs=1e-10)


def test_integrate_constant_sqrt3():
    # sqrt(A*n)*rho^((n-3)/2) with A = 1, n = 3 is the constant sqrt(3).
    q = integrate(lambda r: math.sqrt(3.0) * r**0.0, 1.0, 2.0)
    assert q == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_integrate_empty_and_bad_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_accuracy_error_carries_estimate():
    tol = ToleranceConfig(abs_tol=1e-14, rel_tol=1e-14, max_iterations=1)
    with pytest.raises(AccuracyError) as info:
        integrate(lambda x: abs(x - 0.3141) ** -0.5, 0.0, 1.0, tol)
    assert info.value.estimate == pytest.approx(2.0 * (0.3141**0.5 + 0.6859**0.5), rel=0.2)


def test_find_root_linear():
    x = find_root(lambda x: x - 2.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=2e-10)  # default width tolerance
    tight = ToleranceConfig(abs_tol=1e-13, rel_tol=1e-13)
    assert find_root(lambda x: x - 2.0, 0.0, 5.0, tight) == pytest.approx(2.0, abs=1e-12)


def test_find_root_sqrt2():
    tight = ToleranceConfig(abs_tol=1e-13, rel_tol=1e-13)
    r = find_root(lambda x: x * x - 2.0, 1.0, 2.0, tight)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_interior_zero():
    assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_find_root_endpoint_zero_short_circuits():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert find_root(f, 1.0, 5.0) == 1.0
    assert calls == [1.0]


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_stays_in_bracket():
    rng = np.random.default_rng(3)
    for _ in range(25):
        root = rng.uniform(-5.0, 5.0)
        scale = rng.uniform(0.1, 10.0)
        lo, hi = root - rng.uniform(0.1, 4.0), root + rng.uniform(0.1, 4.0)
        x = find_root(lambda t: scale * (t - root) ** 3, lo, hi)
        assert lo <= x <= hi
        # the flat cubic hits the |f| <= abs_tol exit early
        assert x == pytest.approx(root, abs=1e-3)


def test_find_root_accuracy_error_carries_bracket():
    tol = ToleranceConfig(abs_tol=1e-14, rel_tol=1e-14, max_iterations=3)
    with pytest.raises(AccuracyError) as info:
        find_root(lambda x: x - math.pi * 1e5, 0.0, 1e6, tol)
    lo, hi = info.value.estimate
    assert lo <= math.pi * 1e5 <= hi


def test_expand_bracket_up():
    lo, hi = expand_bracket(lambda x: x - 100.0, 1.0, "up")
    assert lo <= 100.0 <= hi


def test_expand_bracket_doubling_count():
    evals = []

    def f(x):
        evals.append(x)
        return 1e6 - x  # monotone decreasing, root at 1e6

    lo, hi = expand_bracket(f, 1.0, "up")
    assert lo <= 1e6 <= hi
    assert len(evals) - 1 <= 21  # doublings from seed 1


def test_expand_bracket_down():
    lo, hi = expand_bracket(lambda x: x - 1e-9, 1.0, "down")
    assert lo <= 1e-9 <= hi


def test_expand_bracket_failures():
    with pytest.raises(BracketError):
        expand_bracket(lambda x: 1.0, 1.0, "up")
    with pytest.raises(BracketError):
        expand_bracket(lambda x: -1.0, 1.0, "down")
    with pytest.raises(DomainError):
        expand_bracket(lambda x: x, -1.0, "up")
    with pytest.raises(DomainError):
        expand_bracket(lambda x: x, 1.0, "sideways")


def test_expand_bracket_zero_at_seed():
    assert expand_bracket(lambda x: x - 1.0, 1.0, "up") == (1.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        ToleranceConfig(abs_tol=1e-17)
    with pytest.raises(DomainError):
        ToleranceConfig(max_iterations=0)


def test_quadrature_matches_gcg_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        B = rng.uniform(0.01, 2.0)
        alpha = rng.uniform(0.05, 1.0)
        lo = rng.uniform(0.05, 1.0)
        hi = lo + rng.uniform(0.1, 4.0)

        def f(r):
            return math.sqrt(alpha * B) * r ** (-(alpha + 3.0) / 2.0)

        assert integrate(f, lo, hi) == pytest.approx(
            gcg_velocity_jump(B, alpha, lo, hi), rel=1e-8
        )


def test_quadrature_matches_polytropic_closed_form():
    rng = np.random.default_rng(12)
    for i in range(50):
        A = rng.uniform(0.01, 2.0)
        n = 1.0 if i % 5 == 0 else rng.uniform(1.0, 3.0)
        lo = rng.uniform(0.05, 1.0)
        hi = lo + rng.uniform(0.1, 4.0)

        def f(r):
            return math.sqrt(A * n) * r ** ((n - 3.0) / 2.0)

        assert integrate(f, lo, hi) == pytest.approx(
            polytropic_velocity_jump(A, n, lo, hi), rel=1e-8
        )


def test_integrate_is_a_test_oracle_only():
    assert "integrate" not in chapgas.__all__
    assert "integrate" not in dir(chapgas)


def test_numerics_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("chapgas.numerics")


def test_root_finding_api_is_gone():
    # solve() takes rho* from fvcore.star_state; the bisection is an oracle.
    for name in ("find_root", "expand_bracket", "ToleranceConfig", "DEFAULT_ROOT_TOL"):
        assert not hasattr(chapgas, name) and not hasattr(chapgas.solver, name)
        assert name not in chapgas.__all__
    for name in ("BracketError", "AccuracyError"):
        assert not hasattr(chapgas, name) and not hasattr(chapgas.errors, name)
        assert name not in chapgas.__all__


def test_package_does_not_import_the_test_oracles():
    package = pathlib.Path(chapgas.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+(oracles|tests)\b", re.MULTILINE)
    for path in package.glob("*.py"):
        assert not pattern.search(path.read_text()), path.name
