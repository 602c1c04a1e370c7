"""Persistent trace cache: keys, serialization round-trips, store/load."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_loop_program
from repro.acf.base import AcfInstallation, plain_installation
from repro.acf.mfi import attach_mfi
from repro.core.config import DiseConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.harness.trace_cache import (
    SCHEMA_VERSION,
    LazyTrace,
    TraceCache,
    cycle_key,
    default_cache_root,
    deserialize_trace,
    image_fingerprint,
    machine_trace_key,
    open_cache,
    serialize_trace,
    trace_fingerprint,
    CacheError,
)
from repro.sim.config import MachineConfig
from repro.sim.cycle import simulate_trace
from repro.workloads.generator import generate_benchmark
from repro.workloads.specint import get_profile

FUNCTIONAL = DiseConfig(rt_perfect=True)
MAX_STEPS = 5_000_000


@pytest.fixture(scope="module")
def image():
    return generate_benchmark(get_profile("mcf"), scale=0.2)


@pytest.fixture(scope="module")
def installation(image):
    return attach_mfi(image, "dise3")


@pytest.fixture(scope="module")
def trace(installation):
    return installation.make_machine(FUNCTIONAL).run(max_steps=MAX_STEPS)


def _ops_equal(a, b):
    if len(a.ops) != len(b.ops):
        return False
    for x, y in zip(a.ops, b.ops):
        for slot in type(x).__slots__:
            if getattr(x, slot) != getattr(y, slot):
                return False
    return True


class TestSerialization:
    def test_round_trip_preserves_everything(self, trace):
        restored = deserialize_trace(serialize_trace(trace))
        assert _ops_equal(trace, restored)
        assert restored.outputs == trace.outputs
        assert restored.fault_code == trace.fault_code
        assert restored.halted == trace.halted
        assert restored.instructions == trace.instructions
        assert restored.app_instructions == trace.app_instructions
        assert restored.expansions == trace.expansions
        assert tuple(restored.final_regs) == tuple(trace.final_regs)
        assert restored.final_memory.snapshot() == \
            trace.final_memory.snapshot()

    def test_round_trip_replays_identically(self, trace):
        restored = deserialize_trace(serialize_trace(trace))
        config = MachineConfig()
        assert simulate_trace(restored, config, warm_start=True) == \
            simulate_trace(trace, config, warm_start=True)

    def test_corrupt_payload_raises_cache_error(self, trace):
        data = serialize_trace(trace)
        with pytest.raises(CacheError):
            deserialize_trace(data[: len(data) // 2])
        with pytest.raises(CacheError):
            deserialize_trace(b"definitely not zlib")

    def test_serialization_is_deterministic(self, trace):
        assert serialize_trace(trace) == serialize_trace(trace)


class TestKeys:
    def test_key_is_stable_across_rebuilds(self, image):
        inst_a = attach_mfi(image, "dise3")
        inst_b = attach_mfi(
            generate_benchmark(get_profile("mcf"), scale=0.2), "dise3"
        )
        key_a = machine_trace_key(inst_a, inst_a.make_machine(FUNCTIONAL),
                                  repr(FUNCTIONAL), MAX_STEPS)
        key_b = machine_trace_key(inst_b, inst_b.make_machine(FUNCTIONAL),
                                  repr(FUNCTIONAL), MAX_STEPS)
        assert key_a is not None and key_a == key_b

    def test_key_changes_with_image(self, installation):
        other_image = generate_benchmark(get_profile("gzip"), scale=0.2)
        other = attach_mfi(other_image, "dise3")
        key_a = machine_trace_key(
            installation, installation.make_machine(FUNCTIONAL),
            repr(FUNCTIONAL), MAX_STEPS,
        )
        key_b = machine_trace_key(other, other.make_machine(FUNCTIONAL),
                                  repr(FUNCTIONAL), MAX_STEPS)
        assert key_a != key_b

    def test_key_changes_with_productions(self, image):
        plain = plain_installation(image)
        mfi = attach_mfi(image, "dise3")
        key_plain = machine_trace_key(plain, plain.make_machine(FUNCTIONAL),
                                      repr(FUNCTIONAL), MAX_STEPS)
        key_mfi = machine_trace_key(mfi, mfi.make_machine(FUNCTIONAL),
                                    repr(FUNCTIONAL), MAX_STEPS)
        assert key_plain != key_mfi

    def test_key_changes_with_config_and_budget(self, installation):
        machine = installation.make_machine(FUNCTIONAL)
        base = machine_trace_key(installation, machine, repr(FUNCTIONAL),
                                 MAX_STEPS)
        other_cfg = machine_trace_key(
            installation, machine, repr(DiseConfig()), MAX_STEPS
        )
        other_steps = machine_trace_key(installation, machine,
                                        repr(FUNCTIONAL), MAX_STEPS + 1)
        assert len({base, other_cfg, other_steps}) == 3

    def test_ctrl_handlers_are_uncacheable(self, installation):
        machine = installation.make_machine(FUNCTIONAL)
        machine.control_handlers[99] = lambda m: None
        assert machine_trace_key(installation, machine, repr(FUNCTIONAL),
                                 MAX_STEPS) is None

    def test_image_fingerprint_sensitive_to_content(self, image):
        other = generate_benchmark(get_profile("gzip"), scale=0.2)
        assert image_fingerprint(image) != image_fingerprint(other)
        assert image_fingerprint(image) == image_fingerprint(
            generate_benchmark(get_profile("mcf"), scale=0.2)
        )

    def test_cycle_key_separates_configs(self):
        a = cycle_key("digest", repr(MachineConfig()), True)
        b = cycle_key("digest", repr(MachineConfig(width=8)), True)
        c = cycle_key("digest", repr(MachineConfig()), False)
        assert len({a, b, c}) == 3

    def test_trace_fingerprint_memoised_and_stable(self, trace):
        trace.cache_key = None
        trace._fingerprint = None
        first = trace_fingerprint(trace)
        assert trace_fingerprint(trace) == first
        trace.cache_key = "explicit-digest"
        assert trace_fingerprint(trace) == "explicit-digest"
        trace.cache_key = None
        trace._fingerprint = None


def _with_instruction(image, instr, index=1):
    """A copy of ``image`` whose instruction ``index`` is ``instr``."""
    instructions = list(image.instructions)
    instructions[index] = instr
    return replace(image, instructions=instructions)


class TestImageFingerprint:
    """The packed-column image digest: injective, content-derived, and the
    same in every process."""

    BASE = Instruction(Opcode.BIS, ra=1, rb=2, rc=3, imm=4)

    def _digest(self, instr=None, **changes):
        image = build_loop_program()
        if instr is not None:
            image = _with_instruction(image, instr)
        return image_fingerprint(replace(image, **changes))

    @pytest.mark.parametrize("field", ["ra", "rb", "rc", "imm"])
    def test_none_differs_from_zero(self, field):
        assert self._digest(self.BASE.with_fields(**{field: None})) != \
            self._digest(self.BASE.with_fields(**{field: 0}))

    def test_target_index_none_differs_from_zero(self):
        image = build_loop_program()
        index = image.target_index.index(None)
        as_zero = list(image.target_index)
        as_zero[index] = 0
        assert self._digest() != self._digest(target_index=as_zero)

    def test_negative_and_out_of_range_immediates(self):
        digests = {self._digest(self.BASE.with_fields(imm=imm))
                   for imm in (1, -1, (1 << 64) - 1, None, -(1 << 63))}
        assert len(digests) == 5

    def test_wide_data_value(self):
        image = build_loop_program()
        address = next(iter(image.data_words))

        def with_value(value):
            words = dict(image.data_words)
            words[address] = value
            return image_fingerprint(replace(image, data_words=words))

        digests = {with_value(value)
                   for value in (0, 1 << 63, -(1 << 63), (1 << 64) - 1, -1)}
        assert len(digests) == 5

    def test_symbolic_target(self):
        branch = Instruction(Opcode.BR, ra=31, imm=0)
        digests = {self._digest(branch.with_fields(target=target))
                   for target in (None, "loop", "main")}
        assert len(digests) == 3

    def test_equal_images_share_a_digest(self):
        first, second = build_loop_program(), build_loop_program()
        assert first is not second
        assert image_fingerprint(first) == image_fingerprint(second)

    def test_digest_is_stable_across_processes(self, image):
        code = ("from repro.harness.trace_cache import image_fingerprint\n"
                "from repro.workloads.generator import generate_benchmark\n"
                "from repro.workloads.specint import get_profile\n"
                "print(image_fingerprint(generate_benchmark("
                "get_profile('mcf'), scale=0.2)))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED="4321",
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == image_fingerprint(image)

    def test_init_memory_writes_change_the_key(self, image):
        address = image.data_base + 8

        def seed_memory(machine):
            machine.mem.write(address, machine.mem.read(address) + 1)

        plain = plain_installation(image)
        seeded = AcfInstallation(image=image, init_machine=seed_memory)
        key_plain = machine_trace_key(plain, plain.make_machine(FUNCTIONAL),
                                      repr(FUNCTIONAL), MAX_STEPS)
        key_seeded = machine_trace_key(seeded,
                                       seeded.make_machine(FUNCTIONAL),
                                       repr(FUNCTIONAL), MAX_STEPS)
        assert key_plain != key_seeded


class TestTraceCacheStore:
    def test_store_load_round_trip(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        loaded = cache.load_trace("d1")
        assert loaded is not None and _ops_equal(trace, loaded)
        assert cache.load_trace("missing") is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        cache.trace_path("d1").write_bytes(b"garbage")
        assert cache.load_trace("d1") is None

    def test_cycle_results_round_trip(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        result = simulate_trace(trace, MachineConfig(), warm_start=True)
        cache.store_cycles("c1", result)
        assert cache.load_cycles("c1") == result
        assert cache.load_cycles("missing") is None

    def test_stats_and_clear(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        cache.store_cycles(
            "c1", simulate_trace(trace, MachineConfig(), warm_start=True)
        )
        stats = cache.stats()
        assert stats["traces"]["entries"] == 1
        assert stats["cycles"]["entries"] == 1
        assert stats["traces"]["bytes"] > 0
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["traces"]["entries"] == 0
        assert stats["cycles"]["entries"] == 0


class TestLazyTrace:
    def test_defers_until_attribute_access(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        assert lazy.cache_key == "d1"
        assert trace_fingerprint(lazy) == "d1"
        assert lazy._real is None           # nothing deserialized yet
        assert lazy.instructions == trace.instructions
        assert lazy._real is not None
        assert _ops_equal(trace, lazy.materialize())

    def test_replays_identically_to_eager_trace(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        config = MachineConfig()
        assert simulate_trace(lazy, config, warm_start=True) == \
            simulate_trace(trace, config, warm_start=True)

    def test_attribute_writes_reach_the_real_trace(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        lazy = LazyTrace(cache, "d1")
        lazy._warm_states = {"sig": "state"}
        assert lazy.materialize()._warm_states == {"sig": "state"}

    def test_missing_entry_uses_recompute_fallback(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        lazy = LazyTrace(cache, "gone", recompute=lambda: trace)
        assert _ops_equal(trace, lazy.materialize())
        # The recomputed trace was re-stored under the key.
        assert cache.has_trace("gone")

    def test_missing_entry_without_fallback_raises(self, tmp_path):
        lazy = LazyTrace(TraceCache(tmp_path), "gone")
        with pytest.raises(CacheError):
            lazy.materialize()


class TestEnvironment:
    def test_disabled_values(self, monkeypatch):
        for value in ("0", "off", "none", "  "):
            monkeypatch.setenv("REPRO_TRACE_CACHE", value)
            assert default_cache_root() is None
            assert open_cache("auto") is None

    def test_env_path_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
        root = default_cache_root()
        assert root == tmp_path / "tc"
        cache = open_cache("auto")
        assert cache is not None and cache.root == root

    def test_explicit_path_and_passthrough(self, tmp_path):
        cache = open_cache(tmp_path)
        assert isinstance(cache, TraceCache)
        assert open_cache(cache) is cache
        assert open_cache(None) is None

    def test_schema_version_guards_payloads(self, trace):
        import pickle
        import zlib

        payload = pickle.loads(zlib.decompress(serialize_trace(trace)))
        assert payload["schema"] == SCHEMA_VERSION
        payload["schema"] = SCHEMA_VERSION + 1
        stale = zlib.compress(pickle.dumps(payload, protocol=4), level=1)
        with pytest.raises(CacheError):
            deserialize_trace(stale)


class TestSelfHealing:
    """Corrupt entries are quarantined and regenerated, not served."""

    def test_frame_round_trip_and_detection(self):
        from repro.fabric.store import frame_payload, unframe_payload

        payload = b"some cached payload"
        framed = frame_payload(payload, SCHEMA_VERSION)
        assert framed.startswith(b"RDTC%d\n" % SCHEMA_VERSION)
        assert unframe_payload(framed, SCHEMA_VERSION) == payload
        with pytest.raises(CacheError):
            unframe_payload(framed[:-3], SCHEMA_VERSION)   # truncated
        with pytest.raises(CacheError):
            unframe_payload(b"not a cache entry", SCHEMA_VERSION)
        with pytest.raises(CacheError):                    # other schema
            unframe_payload(frame_payload(payload, 2), SCHEMA_VERSION)
        flipped = bytearray(framed)
        flipped[len(flipped) // 2] ^= 0x10
        with pytest.raises(CacheError):
            unframe_payload(bytes(flipped), SCHEMA_VERSION)  # bit rot

    def test_truncated_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        path = cache.trace_path("d1")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load_trace("d1") is None
        assert not path.exists()                    # moved aside, not served
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_bitflipped_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        path = cache.trace_path("d1")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        assert cache.load_trace("d1") is None
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_corrupt_cycles_entry_quarantined(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_cycles(
            "c1", simulate_trace(trace, MachineConfig(), warm_start=True)
        )
        path = cache.cycle_path("c1")
        path.write_bytes(b"rotten")
        assert cache.load_cycles("c1") is None
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_regeneration_matches_cold_run(self, tmp_path):
        """End to end: corrupting a cache entry must not change results."""
        from repro.harness import Suite

        config = MachineConfig()
        cold = Suite(benchmarks=("mcf",), scale=0.05, cache=tmp_path)
        trace = cold.trace_plain("mcf")
        result = cold.cycles(trace, config)
        cache = cold.cache
        path = cache.trace_path(trace.cache_key)
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0x01
        path.write_bytes(bytes(data))
        warm = Suite(benchmarks=("mcf",), scale=0.05, cache=tmp_path)
        healed = warm.trace_plain("mcf")
        assert warm.cycles(healed, config) == result
        assert serialize_trace(healed) == serialize_trace(trace)
        assert cache.has_trace(trace.cache_key)   # re-stored after healing
        assert cache.stats()["quarantined"]["entries"] == 1

    def test_cache_error_is_structured(self):
        from repro.errors import CacheCorruptionError, HarnessError

        assert issubclass(CacheError, CacheCorruptionError)
        assert issubclass(CacheError, HarnessError)
        assert issubclass(CacheError, RuntimeError)   # legacy base


class TestSchemaMigration:
    """Entries from other schema versions are never misread.

    Older entries (pre-SoA ``RDTC2`` frames) read as misses and are
    quarantined so the caller regenerates them; entries from a *newer*
    tool survive ``clear()`` and show up in ``stats()`` instead of being
    treated as garbage.
    """

    @staticmethod
    def _write_framed(path, magic, payload=b"foreign schema payload"):
        import hashlib

        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            magic + hashlib.sha256(payload).digest()[:16] + payload
        )

    def test_v2_entry_quarantined_and_regenerated(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        path = cache.trace_path("d1")
        self._write_framed(path, b"RDTC2\n")
        assert cache.load_trace("d1") is None      # miss, never misread
        assert not path.exists()                   # moved aside
        assert cache.stats()["quarantined"]["entries"] == 1
        cache.store_trace("d1", trace)             # regenerated entry wins
        loaded = cache.load_trace("d1")
        assert loaded is not None and _ops_equal(trace, loaded)

    def test_future_entry_survives_clear(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("now", trace)
        future = cache.trace_path("future")
        self._write_framed(future, b"RDTC9\n")
        assert cache.clear() == 1                  # current entry only
        assert future.exists(), "newer-schema entry is live data, not garbage"
        assert not cache.trace_path("now").exists()

    def test_stats_break_down_by_schema_version(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        cache.store_trace("d1", trace)
        self._write_framed(cache.trace_path("old"), b"RDTC2\n")
        (cache.root / "traces" / "junk.trc").write_bytes(b"not framed")
        stats = cache.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["traces"]["by_schema"] == {
            "2": 1, str(SCHEMA_VERSION): 1, "unknown": 1,
        }
