import math

import numpy as np
import pytest

from chapgas import (
    DomainError,
    Model,
    NumericalLimitError,
    PressureParams,
    State,
    eigenvalues,
    pressure,
    sound_speed_sq,
)
from chapgas import fvcore
from chapgas.models import cs2_law, pressure_law


def test_pressure_cancels_at_unit_density():
    p = PressureParams.ecg(1.0, 1.0, 1.0, 1.0)
    assert pressure(p, 1.0) == 0.0


def test_pressure_transport_is_zero():
    assert pressure(PressureParams.transport(), 3.7) == 0.0


def test_pressure_polytropic_term_raw():
    # The two-term law with B = 0 is not a constructible model tag; check the
    # formula itself on the raw kernel.
    assert fvcore.pressure(0.5, 0.0, 2.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-15)


def test_pressure_gcg_value():
    p = PressureParams.gcg(2.0, 0.5)
    assert pressure(p, 4.0) == pytest.approx(-2.0 / 2.0, rel=1e-14)


def test_pressure_domain_errors():
    p = PressureParams.ecg(1.0, 1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        pressure(p, 0.0)
    with pytest.raises(DomainError):
        pressure(p, -1.0)
    with pytest.raises(DomainError):
        pressure(p, 1e-301)


def test_sound_speed_sq_values():
    assert sound_speed_sq(PressureParams.ecg(1, 1, 1, 1), 1.0) == pytest.approx(2.0)
    assert sound_speed_sq(PressureParams.gcg(1.0, 1.0), 1.0) == pytest.approx(1.0)
    assert sound_speed_sq(PressureParams.transport(), 0.3) == 0.0


def test_eigenvalues():
    lam1, lam2 = eigenvalues(PressureParams.ecg(1, 1, 1, 1), State(1.0, 0.0))
    assert lam1 == pytest.approx(-math.sqrt(2.0), rel=1e-14)
    assert lam2 == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert eigenvalues(PressureParams.transport(), State(1.0, 5.0)) == (5.0, 5.0)
    lam1, lam2 = eigenvalues(PressureParams.gcg(1.0, 1.0), State(4.0, 0.0))
    assert lam1 == pytest.approx(-0.25, rel=1e-14)
    assert lam2 == pytest.approx(0.25, rel=1e-14)


def test_eigenvalues_beyond_the_float_range_are_a_numerical_limit():
    # GCG c^2 = alpha*B*rho^-(alpha+1) passes 1e308 below about rho = 1e-154.
    with pytest.raises(NumericalLimitError):
        eigenvalues(PressureParams.gcg(1.0, 1.0), State(1e-160, 0.0))
    with pytest.raises(NumericalLimitError):
        sound_speed_sq(PressureParams.ecg(1.0, 1.0, 3.0, 0.5), 1e200)


def test_param_validation():
    with pytest.raises(DomainError):
        PressureParams.ecg(0.0, 1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        PressureParams.ecg(1.0, 0.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        PressureParams.ecg(1.0, 1.0, 3.5, 0.5)
    with pytest.raises(DomainError):
        PressureParams.ecg(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        PressureParams(Model.GCG, A=0.1, B=1.0)
    with pytest.raises(DomainError):
        PressureParams(Model.TRANSPORT, B=1.0)
    PressureParams.ecg(1.0, 1.0, 1.0, 1.0)  # n = 1 is legal


def test_state_validation():
    with pytest.raises(DomainError):
        State(-1.0, 0.0)
    with pytest.raises(DomainError):
        State(math.inf, 0.0)
    with pytest.raises(DomainError):
        State(1.0, math.nan)
    State(0.0, 0.3)  # vacuum representation is allowed as a value


def _random_params(rng):
    return PressureParams.ecg(
        rng.uniform(0.01, 1.0),
        rng.uniform(0.01, 1.0),
        rng.uniform(1.0, 3.0),
        rng.uniform(0.05, 1.0),
    )


def test_sound_speed_matches_pressure_derivative():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = _random_params(rng)
        rho = rng.uniform(0.1, 5.0)
        h = 1e-6 * rho
        fd = (pressure(p, rho + h) - pressure(p, rho - h)) / (2.0 * h)
        assert sound_speed_sq(p, rho) == pytest.approx(fd, rel=1e-6)
        assert sound_speed_sq(p, rho) > 0.0  # pressure strictly increasing


def test_eigenvalue_ordering_strict():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = _random_params(rng)
        s = State(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
        lam1, lam2 = eigenvalues(p, s)
        assert lam1 < lam2


@pytest.mark.parametrize("B, alpha", [(0.1, 0.5), (1.0, 1.0), (7.0, 0.05), (1e-30, 1.0)])
def test_laws_without_the_a_term_are_the_two_term_laws_bitwise(B, alpha):
    # A = 0, n = 1 (GCG): the laws skip the A-term. B = 1e-30 makes
    # B rho^-alpha underflow to 0 at the dense end, where the sign of the
    # zero P must still be the two-term law's.
    rho = np.geomspace(1e-300, 1e300, 601)
    cases = (
        (pressure_law, lambda r: 0.0 * r**1.0 - B * r ** (-alpha)),
        (cs2_law, lambda r: 0.0 * 1.0 * r ** (1.0 - 1.0) + alpha * B * r ** (-(alpha + 1.0))),
    )
    for law, two_terms in cases:
        with np.errstate(over="ignore"):
            got, want = law(0.0, B, 1.0, alpha, rho), two_terms(rho)
        assert got.tobytes() == want.tobytes()
        for r in rho[::20].tolist():
            try:
                want = two_terms(r)
            except OverflowError:
                with pytest.raises(OverflowError):
                    law(0.0, B, 1.0, alpha, r)
                continue
            got = law(0.0, B, 1.0, alpha, r)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
