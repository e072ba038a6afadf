"""Power model and energy accumulation."""

import math

import pytest
from hypothesis import given, strategies as st

from dcsim import accumulate, host_power, power
from dcsim.model import HostSpec, HostState

DEFAULT_PARAMS = HostSpec(id=0, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                          p_max_watts=250.0, idle_fraction=0.7)


def test_idle_and_peak_power_exact():
    assert power(DEFAULT_PARAMS, 0.0) == 175.0
    assert power(DEFAULT_PARAMS, 1.0) == 250.0


def test_power_is_affine_on_grid():
    # P(u) = idle + (p_max - idle) * u, checked pointwise
    for i in range(1001):
        u = i / 1000.0
        expected = 175.0 + 75.0 * u
        assert math.isclose(power(DEFAULT_PARAMS, u), expected, rel_tol=1e-12)


def test_half_load():
    assert power(DEFAULT_PARAMS, 0.5) == pytest.approx(212.5)


@pytest.mark.parametrize("u", [-0.01, 1.01, 2.0, -5.0])
def test_power_rejects_out_of_range_utilization(u):
    with pytest.raises(ValueError):
        power(DEFAULT_PARAMS, u)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_power_bounded_by_idle_and_peak(u):
    p = power(DEFAULT_PARAMS, u)
    assert 175.0 <= p <= 250.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_power_monotone(u1, u2):
    if u1 <= u2:
        assert power(DEFAULT_PARAMS, u1) <= power(DEFAULT_PARAMS, u2)


def test_accumulate_rectangle_rule():
    # 1800 s at idle plus 1800 s at peak
    total = accumulate(accumulate(0.0, 175.0, 1800.0), 250.0, 1800.0)
    assert total == pytest.approx(212.5)


def test_accumulate_watt_second_conversion():
    assert accumulate(0.0, 3600.0, 1.0) == pytest.approx(1.0)


def _host(cap=1000.0, on=True, residents=()):
    spec = HostSpec(id=0, mips_capacity=cap, ram_mb=8192.0, storage_gb=1024.0,
                    p_max_watts=250.0, idle_fraction=0.7)
    return HostState(spec=spec, powered_on=on, resident_vms=list(residents))


def test_host_power_off_is_zero():
    assert host_power(_host(on=False), 0.0) == 0.0


def test_host_power_idle_when_empty():
    assert host_power(_host(), 0.0) == pytest.approx(175.0)


def test_host_power_sums_resident_allocations():
    host = _host(cap=1000.0, residents=[1, 2])
    p = host_power(host, 250.0 + 250.0)
    assert p == pytest.approx(power(DEFAULT_PARAMS, 0.5))



def test_host_power_sums_the_demands_it_is_given():
    # the load is the sum passed in, not a lookup of the host's residents
    host = _host(cap=1000.0, residents=[1])
    p = host_power(host, 500.0)
    assert p == pytest.approx(power(DEFAULT_PARAMS, 0.5))

def test_host_power_clamps_at_capacity():
    host = _host(cap=1000.0, residents=[1, 2])
    p = host_power(host, 1800.0)
    assert p == pytest.approx(250.0)
