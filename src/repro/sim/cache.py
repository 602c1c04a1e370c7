"""Set-associative LRU caches for the timing model.

The hierarchy is the paper's (Section 4): 32 KB I and D caches and a
unified 1 MB L2.  Only hits and misses are tracked — contents are never
stored, since the simulators keep architectural state separately.

Two implementations share :class:`CacheConfig`:

* :class:`Cache` / :class:`PerfectCache` — one live cache level, one
  ``access`` call per access (each set an ordered dict of resident tags).
  They serve the reference cycle engine only, which keeps them as the
  per-access definition the outcome engine is tested against.
* :func:`replay_hierarchy` — the outcome engine's Phase A: replays a whole
  trace through {IL1, DL1, L2} level by level over flat LRU sets, with no
  Python-level call per access, and emits a packed per-op outcome column.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.sim.trace import META_FETCH, META_MEM, META_STORE

try:  # NumPy builds the replay streams when present.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    name: str = "cache"

    def __post_init__(self):
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache dimensions must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            # Lines are indexed by shifting off log2(line_bytes) bits.
            raise ConfigError(
                f"line size must be a power of two, not {self.line_bytes}")
        lines = self.size_bytes // self.line_bytes
        if lines == 0 or self.size_bytes % self.line_bytes:
            raise ConfigError("size must be a positive multiple of line size")
        if lines % self.assoc:
            raise ConfigError(
                "line count must be a multiple of associativity")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


class Cache:
    """One cache level.  ``access`` returns True on hit."""

    __slots__ = ("config", "_sets", "_offset_bits", "_num_sets", "_assoc",
                 "accesses", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        # One LRU-ordered dict per set, pre-allocated so the access path is
        # a plain list index (this method dominates timing-replay profiles).
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access the line containing ``addr``; fill on miss; True on hit."""
        self.accesses += 1
        line = addr >> self._offset_bits
        entry_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        if tag in entry_set:
            entry_set.move_to_end(tag)
            return True
        self.misses += 1
        if len(entry_set) >= self._assoc:
            entry_set.popitem(last=False)
        entry_set[tag] = True
        return False

    def probe(self, addr: int) -> bool:
        """Check residence without updating state or statistics."""
        line = addr >> self._offset_bits
        return (line // self._num_sets) in self._sets[line % self._num_sets]

    def invalidate(self):
        for entry_set in self._sets:
            entry_set.clear()

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


# ----------------------------------------------------------------------
# Phase-A outcome pass (see repro.sim.cycle, "outcome" engine)
# ----------------------------------------------------------------------
#: Packed per-op hierarchy outcome codes.  Bits 0..1 describe the fetch
#: access (0 = no access or IL1 hit, 1 = L2 hit, 2 = L2 miss); bits 2..3
#: describe the load access the same way (stores and DL1 hits are 0 —
#: stores retire via the store buffer and add no latency).
FETCH_L2_HIT = 1
FETCH_L2_MISS = 2
MEM_SHIFT = 2


class HierarchyOutcomes:
    """Result of one :func:`replay_hierarchy` pass: the packed per-op
    outcome column plus the access/miss totals the timing model reports."""

    __slots__ = ("codes", "il1_accesses", "il1_misses", "dl1_accesses",
                 "dl1_misses", "l2_misses")

    def __init__(self, codes, il1_accesses, il1_misses, dl1_accesses,
                 dl1_misses, l2_misses):
        self.codes = codes
        self.il1_accesses = il1_accesses
        self.il1_misses = il1_misses
        self.dl1_accesses = dl1_accesses
        self.dl1_misses = dl1_misses
        self.l2_misses = l2_misses


def cache_geometry(cache_config):
    """Outcome-determining identity of one cache level (None = perfect).
    Latencies are deliberately excluded: they shift timing, not hits."""
    if cache_config is None:
        return None
    return (cache_config.size_bytes, cache_config.assoc,
            cache_config.line_bytes)


def _no_memo(key, component, build):
    return build()


def replay_hierarchy(columns, il1_config, dl1_config, l2_config,
                     passes=1, memo=None) -> HierarchyOutcomes:
    """Replay a trace's address stream through the {IL1, DL1, L2} hierarchy.

    Cache behaviour is a pure function of the address stream and the
    geometry, so it can be simulated once per (trace, geometry) and the
    resulting outcome column replayed under any placement/width/window
    configuration — the decoupled-outcome move of the cycle simulator's
    "outcome" engine.

    The replay is decomposed by level.  IL1 sees only the fetch stream and
    DL1 only the data stream, so each L1 level's per-pass miss positions
    depend on that level's stream and geometry alone; they are computed by
    :func:`_replay_level` and recalled through ``memo(key, component,
    build)`` (component ``il1``/``dl1``), so an IL1 ladder replays DL1
    once.  L2 contents depend on the interleaving of IL1 misses and DL1
    load misses, so L2 is replayed here for every (il1, dl1, l2) geometry,
    over the merged L1 miss stream in op order (fetch before data within
    an op).  Stores update DL1 but their misses never reach L2.

    ``passes=2`` models ``warm_start``: the first pass only evolves cache
    state, the second records outcomes and counters — exactly the
    reference engine's warm pass followed by its measured pass.
    """
    if memo is None:
        memo = _no_memo
    il1_accesses, il1_misses, il1_fwd = memo(
        ("il1", cache_geometry(il1_config), passes), "il1",
        lambda: _replay_level(columns, il1_config, passes, False))
    dl1_accesses, dl1_misses, dl1_fwd = memo(
        ("dl1", cache_geometry(dl1_config), passes), "dl1",
        lambda: _replay_level(columns, dl1_config, passes, True))
    n = len(columns.pc)
    keys = miss_keys = ()
    if l2_config is None:
        keys = _merge_keys(il1_fwd[-1], dl1_fwd[-1])
    else:
        shift = l2_config.line_bytes.bit_length() - 1
        sets = [None] * l2_config.num_sets
        last = None
        for p in range(passes):
            keys = _merge_keys(il1_fwd[p], dl1_fwd[p])
            kept, lines = _drop_repeats(keys, _l2_lines(columns, keys, shift))
            misses = _replay_lru(lines, sets, l2_config,
                                 1 if lines and lines[0] == last else 0)
            if lines:
                last = lines[-1]
        miss_keys = _take(kept, misses)
    # An access's code is FETCH_L2_HIT plus one more when it missed
    # (FETCH_L2_MISS), shifted to the data field for the data access
    # (odd keys), so summing one unit per access and per miss builds it.
    if _np is not None and n:
        both = _np.concatenate((_np.asarray(keys, dtype=_np.int64),
                                _np.asarray(miss_keys, dtype=_np.int64)))
        codes = _np.bincount(
            both >> 1, weights=_np.where(both & 1, 1 << MEM_SHIFT, 1),
            minlength=n,
        ).astype(_np.uint8).tobytes()
    else:
        column = bytearray(n)
        for key in (*keys, *miss_keys):
            column[key >> 1] += 1 << MEM_SHIFT if key & 1 else 1
        codes = bytes(column)
    return HierarchyOutcomes(codes, il1_accesses, il1_misses, dl1_accesses,
                             dl1_misses, len(miss_keys))


def _replay_lru(lines, sets, config, start):
    """Replay ``lines[start:]`` through flat LRU ``sets`` (one list per
    set, MRU first; ``None`` until the set is first touched) and return
    the missing indices.  Inline per access: no Python-level call, no
    dict."""
    num_sets = config.num_sets
    # Negative sentinels fill a new set's other ways: never a line number,
    # so every later miss is a plain evict-and-insert.
    padding = list(range(-1, -config.assoc, -1))
    misses = []
    append = misses.append
    for j in range(start, len(lines)):
        line = lines[j]
        index = line % num_sets
        entry_set = sets[index]
        if entry_set is None:
            append(j)
            sets[index] = [line, *padding]
            continue
        if entry_set[0] == line:
            continue
        if line in entry_set:
            entry_set.remove(line)
        else:
            append(j)
            entry_set.pop()
        entry_set.insert(0, line)
    return misses


def _drop_repeats(items, lines):
    """Drop each access whose line equals the previous access's line.

    Re-touching a level's most recent line is a hit that leaves every LRU
    stack unchanged, so the replay of the filtered stream has exactly the
    misses of the full one.  Returns the kept ``items`` and their lines as
    a list of ints."""
    if _np is not None:
        keep = _np.ones(len(lines), dtype=bool)
        keep[1:] = lines[1:] != lines[:-1]
        return items[keep], lines[keep].tolist()
    kept_items = []
    kept_lines = []
    last = None
    for item, line in zip(items, lines):
        if line != last:
            kept_items.append(item)
            kept_lines.append(line)
            last = line
    return kept_items, kept_lines


def _take(items, indices):
    """``items[indices]`` as a compact ``array('q')`` (memo-safe on both
    the NumPy and the pure-Python path)."""
    if _np is not None:
        picked = items[_np.asarray(indices, dtype=_np.intp)]
        return array("q", picked.astype(_np.int64).tobytes())
    return array("q", [items[j] for j in indices])


def _replay_level(columns, config, passes, data):
    """One L1 level over its own stream: ``(accesses, misses, per-pass
    positions)``.  ``accesses``/``misses`` are the recorded pass's counts;
    the positions are the op indices of each pass's misses that continue
    to L2 (for DL1, loads only)."""
    flag = META_MEM if data else META_FETCH
    addr_col = columns.mem if data else columns.pc
    meta_col = columns.meta
    if _np is not None:
        pos = _np.flatnonzero(
            _np.frombuffer(meta_col, dtype=_np.uint64) & flag)
    else:
        pos = [i for i, meta in enumerate(meta_col) if meta & flag]
    if config is None:
        return len(pos), 0, (array("q"),) * passes
    shift = config.line_bytes.bit_length() - 1
    if _np is not None:
        lines = _np.frombuffer(addr_col, dtype=_np.uint64)[pos] >> shift
    else:
        lines = [addr_col[i] >> shift for i in pos]
    kept, lines = _drop_repeats(pos, lines)
    sets = [None] * config.num_sets
    start = 0
    forwarded = []
    for _ in range(passes):
        misses = _replay_lru(lines, sets, config, start)
        # A pass that opens on the line the last one ended on re-touches
        # the MRU line: a hit that changes nothing, so skip it.
        start = 1 if lines and lines[0] == lines[-1] else 0
        fwd = _take(kept, misses)
        if data:
            fwd = array("q", [i for i in fwd
                              if not meta_col[i] & META_STORE])
        forwarded.append(fwd)
    return len(pos), len(misses), tuple(forwarded)


def _merge_keys(fetch_pos, data_pos):
    """One pass's L2 access order: fetch misses keyed ``2i``, data misses
    ``2i + 1``, sorted — op order with fetch before data within an op."""
    if _np is not None:
        keys = _np.concatenate((
            _np.frombuffer(fetch_pos, dtype=_np.int64) << 1,
            (_np.frombuffer(data_pos, dtype=_np.int64) << 1) | 1,
        ))
        keys.sort()
        return keys
    return sorted([i << 1 for i in fetch_pos]
                  + [(i << 1) | 1 for i in data_pos])


def _l2_lines(columns, keys, shift):
    """L2 line number of each merged-stream access."""
    if _np is not None:
        ops = keys >> 1
        addrs = _np.where(
            keys & 1,
            _np.frombuffer(columns.mem, dtype=_np.uint64)[ops],
            _np.frombuffer(columns.pc, dtype=_np.uint64)[ops],
        )
        return addrs >> shift
    pc_col = columns.pc
    mem_col = columns.mem
    return [(mem_col[k >> 1] if k & 1 else pc_col[k >> 1]) >> shift
            for k in keys]


class PerfectCache:
    """A cache that always hits (the paper's 'perfect' I-cache points)."""

    __slots__ = ("accesses", "misses")

    def __init__(self):
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        self.accesses += 1
        return True

    def probe(self, addr: int) -> bool:
        return True

    def invalidate(self):
        pass

    @property
    def hits(self) -> int:
        return self.accesses

    @property
    def miss_rate(self) -> float:
        return 0.0
