import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from actkit import (Scenario, and_gate, attack, build_act, cm_gate, detect, goal_curve, mitigate, simulate,
                    static_probability)
from actkit.errors import DomainError, RateUndefined
from actkit.semantics import compose
from actkit.transient import transient_probability
from actkit.timing import rate_from_probability, success_cdf


def test_known_values():
    assert rate_from_probability(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-15)
    assert rate_from_probability(1.0 - math.exp(-1.0), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert rate_from_probability(0.25, 1.0) == pytest.approx(0.2876820724517809, abs=1e-15)
    assert success_cdf(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)
    assert success_cdf(math.log(2), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_edges():
    assert rate_from_probability(0.0, 5.0) == 0.0
    assert success_cdf(0.0, 3.0) == 0.0
    assert success_cdf(2.0, 0.0) == 0.0


def test_horizon_scales_rate():
    assert rate_from_probability(0.5, 2.0) == pytest.approx(math.log(2) / 2.0, abs=1e-15)


def test_probability_one_has_no_rate():
    with pytest.raises(RateUndefined):
        rate_from_probability(1.0, 1.0)


@pytest.mark.parametrize("p,t", [(-0.1, 1.0), (1.1, 1.0), (float("nan"), 1.0),
                                 (0.5, 0.0), (0.5, -1.0), (0.5, float("inf")),
                                 (0.5, float("nan")),
                                 # truth values and text are no numbers, though float() reads them
                                 (True, 1.0), (np.True_, 1.0), ("0.5", 1.0), (0.5, True), (0.5, np.True_), (0.5, "1")])
def test_rate_domain_errors(p, t):
    with pytest.raises(DomainError):
        rate_from_probability(p, t)


def test_numpy_scalar_parameters_time_as_their_float_twins():
    # validate_act accepts any real number, so the timed analyses take them too
    def model(real):
        return build_act("twin", and_gate(
            "top", attack("a", p=real(0.5, np.float32), t=real(2, np.int64)), attack("b", p=real(0.4, np.float64)),
            cm_gate("cm", detect("d", p=0.6, t=real(3, np.int32)), mitigate("m", p=real(0.5, np.float16)))))

    numpy_act, float_act = model(lambda x, dtype: dtype(x)), model(lambda x, dtype: float(dtype(x)))
    assert rate_from_probability(np.float32(0.5), np.int64(2)) == rate_from_probability(0.5, 2.0)
    assert success_cdf(np.float32(0.5), np.int64(2)) == success_cdf(0.5, 2.0)
    times = np.linspace(0.0, 4.0, 9)
    for scenario in Scenario:
        assert goal_curve(numpy_act, scenario, times) == goal_curve(float_act, scenario, times)
        assert simulate(numpy_act, scenario, times, runs=500, seed=3) == simulate(float_act, scenario, times,
                                                                                  runs=500, seed=3)
        assert (transient_probability(compose(numpy_act, scenario), times)
                == transient_probability(compose(float_act, scenario), times))


def test_numpy_scalars_of_other_precisions_are_read_as_doubles():
    # a half-precision or long-double parameter is read as its double, so no analysis computes in its precision
    def model(real):
        return build_act("twin", and_gate(
            "top", attack("a", p=real(0.5), t=real(0.5)), attack("b", p=0.4, lam=real(0.5)),
            cm_gate("cm", detect("d", p=real(0.5)), mitigate("m", p=0.5, lam=real(0.5)))))

    times = [0.0, 1.0]
    for dtype in (np.float16, np.longdouble):
        numpy_act, float_act = model(dtype), model(lambda x: float(dtype(x)))
        for scenario in Scenario:
            assert static_probability(numpy_act, scenario) == static_probability(float_act, scenario)
            curve = goal_curve(numpy_act, scenario, times)
            assert curve == goal_curve(float_act, scenario, times) and {type(y) for y in curve.ys} == {float}
            assert (transient_probability(compose(numpy_act, scenario), times)
                    == transient_probability(compose(float_act, scenario), times))


@pytest.mark.parametrize("rate,t", [(-1.0, 1.0), (float("inf"), 1.0), (float("nan"), 1.0),
                                    (1.0, -0.5), (1.0, float("inf")), (1.0, float("nan")),
                                    (True, 1.0), (np.True_, 1.0), ("0.5", 1.0),
                                    (1.0, True), (1.0, np.True_), (1.0, "1")])
def test_cdf_domain_errors(rate, t):
    with pytest.raises(DomainError):
        success_cdf(rate, t)


@given(p=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
       t=st.floats(min_value=1e-6, max_value=1e4))
def test_round_trip(p, t):
    assert abs(success_cdf(rate_from_probability(p, t), t) - p) <= 1e-12


@given(rate=st.floats(min_value=0.0, max_value=100.0),
       t1=st.floats(min_value=0.0, max_value=100.0),
       t2=st.floats(min_value=0.0, max_value=100.0))
def test_cdf_monotone_in_time(rate, t1, t2):
    lo, hi = sorted((t1, t2))
    assert success_cdf(rate, lo) <= success_cdf(rate, hi)
