"""Seeded, portable random number generation, and the workload trace.

The generator is splitmix64 (Steele, Lea & Flood's 64-bit mixer): pure
integer arithmetic, identical streams on every platform and Python
version.  Platform default generators are deliberately not used.  A run's
``SeededRng`` is a sequential stream, which RC's random selection draws
from, and ``keyed_u01``, the reference keyed draw.

Utilization samples are *keyed* rather than sequential: the draw for a
VM in a frame is a pure function of (seed, vm id, frame index), walked on
from the VM's value at the frame before.  A run's ``WorkloadTrace`` holds
its seed and makes those draws.  Two policies run against the same seed
therefore see identical per-VM workloads even when they migrate, complete,
or power-manage differently, which keeps cross-policy comparisons
pointwise meaningful.
"""

import sys
from array import array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BIG_ENDIAN = sys.byteorder == "big"


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_key(mixed_seed: int, *keys: int) -> int:
    """Fold each key into ``mixed_seed`` (64 bits, as ``_mix64`` returns)."""
    h = mixed_seed
    for k in keys:
        h = _mix64(h ^ ((k * _GOLDEN) & _MASK64))
    return h


def _to_unit(word: int) -> float:
    # top 53 bits -> [0, 1)
    return (word >> 11) * (2.0 ** -53)


class SeededRng:
    """Deterministic 64-bit generator."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._mixed_seed = _mix64(self.seed)
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64((self.seed + self._counter * _GOLDEN) & _MASK64)

    def next_u01(self) -> float:
        return _to_unit(self.next_u64())

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.next_u01() * n)

    def keyed_u01(self, *keys: int) -> float:
        """Uniform draw determined purely by (seed, keys); not streamed.

        This is the reference chain: each key folded into the mixed seed
        (``_mix_key``) and the word made a unit float.  The engine draws
        through ``WorkloadTrace.utilizations``, which gives the same value
        for a VM's (vm, frame) draw.
        """
        return _to_unit(_mix_key(self._mixed_seed, *keys))


# Words per packed integer in ``_top_bits``.  Each word has a 128-bit lane of
# its own, so a 64 x 64-bit product stays inside its lane.
_LANES = 512
_LOW64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")  # each lane's low half
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 in each lane


def _top_bits(lanes: bytes, fold: int) -> list:
    """``[_mix64(w ^ fold) >> 11 for w in words]``, for 64-bit ``words`` and ``fold``.

    ``lanes`` holds the words, each in a 16-byte lane of its own: the word
    little-endian, then 8 zero bytes.  Up to ``_LANES`` lanes at a time make
    one integer, so each splitmix64 step is a few whole-integer operations.
    A right shift brings the next lane's low bits into a lane's high half,
    so the lanes are masked to their low halves after every shift and
    before every multiply.
    """
    top = []
    for start in range(0, len(lanes), 16 * _LANES):
        chunk = lanes[start:start + 16 * _LANES]
        z = int.from_bytes(chunk, "little") ^ fold * (_ONES >> 8 * (16 * _LANES - len(chunk)))
        # ``_LOW64`` has ``_LANES`` lanes, but ``&`` keeps only the lanes ``z`` has
        z = ((z ^ (z >> 30)) & _LOW64) * 0xBF58476D1CE4E5B9 & _LOW64
        z = ((z ^ (z >> 27)) & _LOW64) * 0x94D049BB133111EB & _LOW64
        packed = array("Q", ((z ^ (z >> 31)) >> 11 & _LOW64).to_bytes(len(chunk), "little"))
        if _BIG_ENDIAN:
            packed.byteswap()
        top += packed[::2].tolist()
    return top


# Per-frame step of the utilization random walk, as a fraction of full
# CPU.  The walk reflects at 0 and 1, which preserves an exactly uniform
# marginal distribution at every frame while giving workloads the
# short-term stability of real applications.
DEFAULT_UTIL_STEP = 0.2


def walk_utilization(previous: float, draw: float, step: float) -> float:
    """Advance a reflected uniform random walk by one keyed draw in [0, 1).

    The walk moves by ``step * (2.0 * draw - 1.0)`` and is folded back into
    [0, 1] by reflection at its bounds.
    """
    u = (previous + step * (2.0 * draw - 1.0)) % 2.0
    return 2.0 - u if u > 1.0 else u


class WorkloadTrace:
    """A run's workload under one seed: each VM's utilization at the latest two frames.

    A VM's utilization at frame 0 is its keyed draw ``keyed_u01(vm, 0)``
    under the trace's seed; at a later frame ``f`` it is
    ``walk_utilization(u, keyed_u01(vm, f), DEFAULT_UTIL_STEP)``, ``u``
    being its value at ``f - 1``.  Runs of that seed that share a trace,
    and step frame ``f`` before any of them steps ``f + 1``, see one
    workload: the first to need a VM at a frame draws it, the others read
    it.  The trace holds two values per VM, in two lists indexed by VM id
    (``current[v]`` is None until VM ``v`` is drawn at ``frame``), however
    many frames or runs read it.
    """

    __slots__ = ("seed", "fleet_size", "frame", "current", "previous", "_lanes")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.fleet_size = None  # the VM count of the runs placed on it (``engine.placed_state``)
        self.frame = 0
        self.current = []  # utilization at ``frame``, by vm id
        self.previous = []  # utilization at ``frame - 1``, by vm id
        # each VM's _mix_key(mixed seed, vm id) as a ``_top_bits`` lane, by vm id
        self._lanes = []

    def utilizations(self, vm_ids, frame: int, fleet_size: int) -> list:
        """Each VM's utilization at ``frame``, in the order of ``vm_ids``.

        VM ids are positions in a fleet of ``fleet_size``.  The first call
        at a frame turns the trace over to it, with ``current`` one None
        per VM; it raises ``RuntimeError`` unless the frame is 0 or the
        one after the trace's, as when runs sharing the trace fall out of
        lockstep.  A VM already drawn at ``frame`` is read from
        ``current``; any other is drawn and stored there.  Each VM's
        first-key mix is computed once per trace and kept; the frame's key
        is folded into all of them in one ``_top_bits`` batch, and the
        walk's float operations are spelled out inline (``b * 2.0 ** -52``
        is exactly ``2.0 * draw``).  On a frame's first call every VM is
        drawn and the values drawn are returned as they are.
        """
        current = self.current
        if self.frame != frame or len(current) != fleet_size:
            if frame != 0 and frame != self.frame + 1:
                raise RuntimeError("a run at frame %d shares a workload trace at frame %d"
                                   % (frame, self.frame))
            self.frame, self.previous = frame, current
            self.current = current = [None] * fleet_size
            drawn = vm_ids
        else:
            drawn = [v for v in vm_ids if current[v] is None]
            if not drawn:
                return list(map(current.__getitem__, vm_ids))
        lanes = self._lanes
        if len(lanes) < fleet_size:
            mixed_seed = _mix64(self.seed)
            lanes += [_mix_key(mixed_seed, v).to_bytes(16, "little")
                      for v in range(len(lanes), fleet_size)]
        bits = _top_bits(b"".join(map(lanes.__getitem__, drawn)), (frame * _GOLDEN) & _MASK64)
        values = []
        append = values.append
        if frame:
            previous, step = self.previous, DEFAULT_UTIL_STEP
            for vm_id, b in zip(drawn, bits):
                # walk_utilization, reflection included
                u = (previous[vm_id] + step * (b * 2.0 ** -52 - 1.0)) % 2.0
                current[vm_id] = u = 2.0 - u if u > 1.0 else u
                append(u)
        else:
            for vm_id, b in zip(drawn, bits):
                current[vm_id] = u = b * 2.0 ** -53
                append(u)
        return values if drawn is vm_ids else list(map(current.__getitem__, vm_ids))


def child_rng(rng, run_index: int) -> SeededRng:
    """Derive an independent per-run stream from a master seed or SeededRng."""
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    seed = rng.seed if isinstance(rng, SeededRng) else int(rng)
    return SeededRng(_mix_key(_mix64(seed), run_index))
