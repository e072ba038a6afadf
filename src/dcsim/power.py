"""Linear host power model and energy accounting.

A host draws a fixed idle fraction of its peak power plus a component
proportional to CPU utilization:

    P(u) = k * P_max + (1 - k) * P_max * u,   u in [0, 1]

Energy is the rectangle-rule integral of P over time; utilization is
piecewise-constant per frame, so the rule is exact.
"""

from .model import HostState


def power(spec, u: float) -> float:
    """Instantaneous power draw in watts at CPU utilization ``u``.

    ``spec`` is anything with ``p_max_watts`` and ``idle_fraction``, such
    as a HostSpec or a HostSnapshot.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("utilization must be in [0, 1]")
    k = spec.idle_fraction
    return k * spec.p_max_watts + (1.0 - k) * spec.p_max_watts * u


def accumulate(total_wh: float, p_watts: float, dt_seconds: float) -> float:
    """Return ``total_wh`` plus ``p_watts`` drawn for ``dt_seconds``, in Wh."""
    if p_watts < 0:
        raise ValueError("power must be non-negative")
    if dt_seconds < 0:
        raise ValueError("duration must be non-negative")
    return total_wh + p_watts * dt_seconds / 3600.0


def host_power(host: HostState, load: float) -> float:
    """Power draw of ``host`` at a CPU ``load`` in MIPS.

    The engine gives the sum of the resident VMs' demands, added left to
    right (``model.add_up``).  A powered-off host draws nothing; an
    oversubscribed one is clamped to 100% utilization, as a CPU cannot be
    more than fully busy.
    """
    if not host.powered_on:
        return 0.0
    u = min(1.0, load / host.spec.mips_capacity)
    return power(host.spec, u)
