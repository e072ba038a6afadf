"""Seeded, portable random number generation for workload sampling.

Everything stochastic in a run flows through one SeededRng.  The
generator is splitmix64 (Steele, Lea & Flood's 64-bit mixer): pure
integer arithmetic, identical streams on every platform and Python
version.  Platform default generators are deliberately not used.

Utilization samples are *keyed* rather than sequential: the draw for a
VM in a frame is a pure function of (seed, vm id, frame index).  Two
policies run against the same seed therefore see identical per-VM
workloads even when they migrate, complete, or power-manage
differently, which keeps cross-policy comparisons pointwise meaningful.
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
        # each VM's _mix_key(mixed seed, vm id) as a ``_top_bits`` lane, by vm
        # id, for ``walk_residents``
        self._first_mix = []

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
        through ``walk_residents``, which gives the same value for a VM's
        (vm, frame) draw.
        """
        return _to_unit(_mix_key(self._mixed_seed, *keys))

    def walk_residents(self, vm_ids, frame: int, current: list, previous: list) -> list:
        """Each VM's walked utilization at ``frame``, in the order of ``vm_ids``.

        ``current`` and ``previous`` are lists indexed by VM id, an id being
        a position in the fleet, and ``current`` holds None for a VM not yet
        drawn at ``frame``.  A VM already drawn is read from ``current``.
        Any other is drawn and stored there: at frame 0 its keyed draw
        ``keyed_u01(vm, 0)`` itself, later ``walk_utilization(previous[vm],
        keyed_u01(vm, frame), DEFAULT_UTIL_STEP)``; ``previous`` is only read.
        Each VM's first-key mix is computed once per generator and kept; the
        frame's key is folded into all of them in one ``_top_bits`` batch,
        and the walk's float operations are spelled out inline (``b * 2.0 **
        -52`` is exactly ``2.0 * draw``).  When nothing in ``current`` is
        drawn yet, as on a frame's first pass, every VM is drawn and the
        values drawn are returned as they are.
        """
        first_mix = self._first_mix
        if len(first_mix) < len(current):
            first_mix += [_mix_key(self._mixed_seed, v).to_bytes(16, "little")
                          for v in range(len(first_mix), len(current))]
        # nothing drawn yet, as on a frame's first pass (the first id settles
        # most later passes)
        if vm_ids and current[vm_ids[0]] is None and current.count(None) == len(current):
            drawn = vm_ids
        else:
            drawn = [v for v in vm_ids if current[v] is None]
            if not drawn:
                return list(map(current.__getitem__, vm_ids))
        bits = _top_bits(b"".join(map(first_mix.__getitem__, drawn)), (frame * _GOLDEN) & _MASK64)
        values = []
        append = values.append
        if frame:
            step = DEFAULT_UTIL_STEP
            for vm_id, b in zip(drawn, bits):
                # walk_utilization, then reflect_unit
                u = (previous[vm_id] + step * (b * 2.0 ** -52 - 1.0)) % 2.0
                current[vm_id] = u = 2.0 - u if u > 1.0 else u
                append(u)
        else:
            for vm_id, b in zip(drawn, bits):
                current[vm_id] = u = b * 2.0 ** -53
                append(u)
        return values if drawn is vm_ids else list(map(current.__getitem__, vm_ids))


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


def utilization_at(seed: int, vm_id: int, frame_index: int) -> float:
    """Keyed utilization sample for a VM in a frame; pure in its arguments."""
    return _to_unit(_mix_key(_mix64(seed), vm_id, frame_index))


# Default per-frame step of the utilization random walk, as a fraction of
# full CPU.  The walk reflects at 0 and 1, which preserves an exactly
# uniform marginal distribution at every frame while giving workloads
# the short-term stability of real applications.
DEFAULT_UTIL_STEP = 0.2


def reflect_unit(x: float) -> float:
    """Fold x into [0, 1] by reflection at the interval bounds."""
    x = x % 2.0
    return 2.0 - x if x > 1.0 else x


def walk_utilization(previous: float, draw: float, step: float) -> float:
    """Advance a reflected uniform random walk by one keyed draw in [0, 1)."""
    return reflect_unit(previous + step * (2.0 * draw - 1.0))


def utilization_walk(seed: int, vm_id: int, frame_index: int,
                     step: float = DEFAULT_UTIL_STEP) -> float:
    """Utilization of a VM at a frame under the reflected random walk.

    Frame 0 is a keyed uniform draw; each later frame moves by a keyed
    uniform increment in [-step, +step], reflected into [0, 1].  Pure in
    its arguments, so two policies sharing a seed see identical per-VM
    workload traces regardless of how they migrate or power-manage.
    """
    u = utilization_at(seed, vm_id, 0)
    for t in range(1, frame_index + 1):
        u = walk_utilization(u, utilization_at(seed, vm_id, t), step)
    return u


def child_rng(rng, run_index: int) -> SeededRng:
    """Derive an independent per-run stream from a master seed or SeededRng."""
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    seed = rng.seed if isinstance(rng, SeededRng) else int(rng)
    return SeededRng(_mix_key(_mix64(seed), run_index))
