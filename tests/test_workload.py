"""Seeded RNG, keyed sampling, the reflected utilization walk and the workload trace."""

import random

import pytest
from hypothesis import given, strategies as st

from dcsim.workload import (DEFAULT_UTIL_STEP, SeededRng, WorkloadTrace, _mix64, _top_bits,
                            child_rng, walk_utilization)


def test_same_seed_same_stream():
    a, b = SeededRng(123), SeededRng(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    a, b = SeededRng(1), SeededRng(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_stream_is_platform_independent():
    # frozen values pin the generator; any change to the mixing breaks
    # reproducibility of archived experiment outputs
    rng = SeededRng(42)
    assert rng.next_u64() == 13679457532755275413
    assert rng.next_u64() == 2949826092126892291


def test_u01_range_and_determinism():
    rng = SeededRng(7)
    values = [rng.next_u01() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    again = SeededRng(7)
    assert values == [again.next_u01() for _ in range(1000)]


def test_u01_roughly_uniform():
    rng = SeededRng(11)
    values = [rng.next_u01() for _ in range(20000)]
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.01
    assert sum(1 for v in values if v < 0.25) / len(values) == pytest.approx(0.25, abs=0.02)


def test_randbelow_bounds():
    rng = SeededRng(5)
    for _ in range(1000):
        assert 0 <= rng.randbelow(7) < 7


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SeededRng(1).randbelow(0)


def test_keyed_draw_is_order_independent():
    rng = SeededRng(99)
    first = rng.keyed_u01(3, 17)
    rng.next_u64()  # advancing the sequential stream must not matter
    assert rng.keyed_u01(3, 17) == first
    assert SeededRng(99).keyed_u01(3, 17) == first


def test_keyed_draw_matches_pure_function():
    # a trace's frame-0 draw is the keyed draw, whatever was drawn before
    rng = SeededRng(31)
    assert [rng.keyed_u01(4, 0)] == WorkloadTrace(31, 5).utilizations([4], 0)
    rng.next_u64()
    assert [rng.keyed_u01(4, 0)] == WorkloadTrace(31, 5).utilizations([4], 0)


_M64 = (1 << 64) - 1


def _chain(seed, *keys):
    """The keyed word spelled out: splitmix64's finalizer over seed, then each key."""
    def mix(z):
        z &= _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)
    h = mix(seed)
    for k in keys:
        h = mix(h ^ ((k * 0x9E3779B97F4A7C15) & _M64))
    return h


def _unit(word):
    return (word >> 11) * 2.0 ** -53


_ids = st.one_of(st.integers(-1000, 1000), st.integers(-2 ** 70, 2 ** 70),
                 st.integers(2 ** 64, 2 ** 66))


# VM ids as WorkloadTrace.utilizations takes them: positions in a fleet,
# which index the trace's lists
_positions = st.integers(0, 300)


@given(st.integers(-2 ** 70, 2 ** 70), st.lists(_ids, max_size=3),
       st.lists(_positions, max_size=5), st.lists(_positions, max_size=3))
def test_keyed_draw_equals_the_mix_chain_cached_or_not(seed, keys, earlier, vms):
    assert SeededRng(seed).keyed_u01(*keys) == _unit(_chain(seed, *keys))
    # the trace keeps each VM's first-key mix: after draws of other (and
    # maybe the same) ids, a VM's frame-0 draw, drawn or read, is the chain's
    trace = WorkloadTrace(seed, 301)
    for first in earlier:
        trace.utilizations([first], 0)
    for vm in vms:
        expected = [_unit(_chain(seed, vm, 0))]
        assert trace.utilizations([vm], 0) == expected
        assert trace.utilizations([vm], 0) == expected


_units = st.floats(0.0, 1.0)


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 12), st.integers(0, 40), st.data())
def test_resident_batch_equals_keyed_draws_walked(seed, size, frame, data):
    # repeats allowed; every id not yet in ``current`` is drawn
    vm_ids = data.draw(st.lists(st.integers(0, size - 1), max_size=8))
    previous = data.draw(st.lists(_units, min_size=size, max_size=size))
    filled = data.draw(st.dictionaries(st.integers(0, size - 1), _units))
    _check_batch(seed, vm_ids, frame, previous, filled)


@pytest.mark.parametrize("frame", [0, 7])
def test_resident_batch_over_several_packed_integers_equals_keyed_draws_walked(frame):
    # 1400 ids of a fleet of 1300, 100 of them repeats; the 1189 ids not
    # among the 200 VMs filled in are drawn in three packed integers of up
    # to 512 words
    _check_large_batch(frame, prefilled=200)


@pytest.mark.parametrize("frame", [0, 7])
def test_first_pass_over_several_packed_integers_equals_keyed_draws_walked(frame):
    # the same 1400 ids on the first call at the frame, which turns the trace
    # over to it: all are drawn, repeats too
    _check_large_batch(frame, prefilled=None)


def _check_large_batch(frame, prefilled):
    rng = random.Random(21)
    vm_ids = list(range(1300)) + rng.sample(range(1300), 100)
    rng.shuffle(vm_ids)
    previous = [rng.random() for _ in range(1300)]
    filled = {v: rng.random() for v in rng.sample(range(1300), prefilled or 0)}
    assert sum(v not in filled for v in vm_ids) > 1024
    _check_batch(2 ** 64 - 1, vm_ids, frame, previous, filled if prefilled is not None else None)


def _check_batch(seed, vm_ids, frame, previous, filled):
    """``WorkloadTrace.utilizations`` at ``frame``, after ``previous``, against the
    keyed draws walked.  ``filled`` maps the VMs already drawn at ``frame``; when
    it is None, the call is the frame's first and turns the trace over to it."""
    expected = [None] * len(previous)
    for v, u in (filled or {}).items():  # a VM already drawn at this frame is read
        expected[v] = u
    for v in vm_ids:
        if expected[v] is None:
            draw = SeededRng(seed).keyed_u01(v, frame)
            expected[v] = draw if frame == 0 else walk_utilization(
                previous[v], draw, DEFAULT_UTIL_STEP)
    trace, previous_before = WorkloadTrace(seed, len(previous)), list(previous)
    if filled is None:
        trace.frame, trace.current = frame - 1, previous
    else:
        trace.frame, trace.previous = frame, previous
        trace.current = [filled.get(v) for v in range(len(previous))]
    values = trace.utilizations(vm_ids, frame)
    assert values == [expected[v] for v in vm_ids]
    assert trace.frame == frame and trace.current == expected
    assert trace.previous == previous == previous_before


_words = st.integers(0, 2 ** 64 - 1)


def _lanes(words):
    return b"".join(w.to_bytes(8, "little") + bytes(8) for w in words)


@pytest.mark.parametrize("length", [0, 1, 2, 511, 512, 513, 1025])
@pytest.mark.parametrize("fold", [0, 2 ** 64 - 1, 0x9E3779B97F4A7C15 * 5 % 2 ** 64])
def test_packed_mix_equals_the_scalar_mix_word_by_word(length, fold):
    rng = random.Random(length)
    words = ([0, 2 ** 64 - 1] + [rng.getrandbits(64) for _ in range(length)])[:length]
    assert _top_bits(_lanes(words), fold) == [_mix64(w ^ fold) >> 11 for w in words]


@given(st.lists(_words, max_size=20), _words)
def test_packed_mix_equals_the_scalar_mix(words, fold):
    assert _top_bits(_lanes(words), fold) == [_mix64(w ^ fold) >> 11 for w in words]


@given(st.integers(-2 ** 70, 2 ** 70), _ids, _ids, st.integers(0, 2 ** 66))
def test_pure_draws_equal_the_mix_chain(seed, vm, frame, run_index):
    assert SeededRng(seed).keyed_u01(vm, frame) == _unit(_chain(seed, vm, frame))
    assert child_rng(seed, run_index).seed == _chain(seed, run_index)


def test_child_rng_independent_streams():
    children = [child_rng(42, i) for i in range(10)]
    seeds = {c.seed for c in children}
    assert len(seeds) == 10


def test_child_rng_rejects_negative_index():
    with pytest.raises(ValueError):
        child_rng(42, -1)


def reflect_unit(x):
    """x folded into [0, 1] by reflection, as ``walk_utilization`` folds a walk:
    a step of ``x`` from 0, as a draw of 1.0 makes it."""
    return walk_utilization(0.0, 1.0, x)


def test_reflect_unit_identity_inside():
    assert reflect_unit(0.0) == 0.0
    assert reflect_unit(0.4) == 0.4
    assert reflect_unit(1.0) == 1.0


def test_reflect_unit_folds_overshoot():
    assert reflect_unit(1.2) == pytest.approx(0.8)
    assert reflect_unit(-0.3) == pytest.approx(0.3)


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_reflect_unit_always_in_bounds(x):
    assert 0.0 <= reflect_unit(x) <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_walk_stays_in_bounds(prev, draw, step):
    assert 0.0 <= walk_utilization(prev, draw, step) <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_walk_moves_at_most_one_step(prev, draw, step):
    assert abs(walk_utilization(prev, draw, step) - prev) <= step + 1e-12


def test_walk_reference_matches_incremental():
    # the trace, turned over frame by frame, walks each VM exactly as the
    # reference keyed draws walked by walk_utilization do
    seed, vms = 42, [13, 2, 7]
    rng, trace = SeededRng(seed), WorkloadTrace(seed, 14)
    expected = [rng.keyed_u01(vm, 0) for vm in vms]
    assert trace.utilizations(vms, 0) == expected
    for frame in range(1, 30):
        expected = [walk_utilization(u, rng.keyed_u01(vm, frame), DEFAULT_UTIL_STEP)
                    for u, vm in zip(expected, vms)]
        assert trace.utilizations(vms, frame) == expected


def test_a_fresh_trace_refuses_a_first_frame_after_0():
    # a walk at frame 1 needs the VMs' values at frame 0, which no run drew
    trace = WorkloadTrace(42, 2)
    with pytest.raises(RuntimeError, match="run at frame 1 shares a workload trace at frame -1"):
        trace.utilizations([0, 1], 1)
    assert trace.frame == -1 and trace.current == []
    assert trace.utilizations([0, 1], 0) == [SeededRng(42).keyed_u01(v, 0) for v in (0, 1)]


def test_an_id_list_edited_between_frames_draws_as_a_fresh_trace_does():
    # the trace keeps the joined lanes of the last list it drew in full; an
    # edit in place leaves the caller's list the same object, so the lanes
    # must be looked up by the list's value, against a copy of it
    ids, trace, fresh = [0, 1, 2, 3, 4, 5], WorkloadTrace(9, 6), WorkloadTrace(9, 6)
    assert trace.utilizations(ids, 0) == fresh.utilizations(list(ids), 0)
    ids.reverse()
    assert trace.utilizations(ids, 1) == fresh.utilizations(list(ids), 1)
    del ids[2:4]
    assert trace.utilizations(ids, 2) == fresh.utilizations(list(ids), 2)
    assert trace.utilizations(ids, 3) == fresh.utilizations(list(ids), 3)


def test_walk_marginal_stays_uniform():
    # reflection preserves the uniform marginal at every frame
    n = 4000
    trace = WorkloadTrace(9, n)
    for frame in range(21):
        values = trace.utilizations(range(n), frame)
        if frame in (0, 5, 20):
            mean = sum(values) / n
            assert abs(mean - 0.5) < 0.02
            below = sum(1 for v in values if v < 0.5) / n
            assert abs(below - 0.5) < 0.03
