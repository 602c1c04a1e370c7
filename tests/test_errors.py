"""The shared structured error taxonomy (repro.errors)."""

import pytest

from repro.errors import (
    AcfConfigError,
    AcfError,
    CacheCorruptionError,
    CampaignError,
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    ExecutionError,
    ExecutionTimeout,
    FabricError,
    HarnessError,
    ReproError,
    SimulationError,
    TaskError,
    TaskTimeoutError,
    WorkerCrashError,
    backoff_delay,
    is_retryable,
)
from repro.isa.build import halt, jmp, li
from repro.isa.opcodes import Opcode
from repro.program.builder import ProgramBuilder
from repro.sim.branch import BranchPredictorConfig
from repro.sim.cache import CacheConfig
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program

T0 = 1


def _build(instrs):
    builder = ProgramBuilder()
    builder.label("main")
    for instr in instrs:
        builder.emit(instr)
    builder.set_entry("main")
    return builder.build()


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in (SimulationError, ExecutionError, ExecutionTimeout,
                    AcfError, AcfConfigError, HarnessError, TaskError,
                    WorkerCrashError, TaskTimeoutError, CacheCorruptionError,
                    CheckpointError, CampaignError):
            assert issubclass(cls, ReproError)

    def test_simulation_errors_keep_runtime_error_base(self):
        assert issubclass(ExecutionError, RuntimeError)

    def test_acf_errors_keep_value_error_shim(self):
        # One-release deprecation shim: legacy ``except ValueError``
        # around ACF construction keeps working.
        assert issubclass(AcfError, ValueError)
        assert issubclass(AcfConfigError, ValueError)

    def test_retryability_drives_harness_policy(self):
        assert WorkerCrashError("w").retryable
        assert TaskTimeoutError("t").retryable
        assert not ExecutionError("e").retryable
        assert not CacheCorruptionError("c").retryable


class TestDetails:
    def test_details_carry_machine_readable_fields(self):
        err = ExecutionError("boom", pc=0x400010, index=4,
                             opcode=Opcode.LDQ)
        details = err.details()
        assert details["type"] == "ExecutionError"
        assert details["message"] == "boom"
        assert details["pc"] == 0x400010
        assert details["index"] == 4
        assert details["opcode"] == "LDQ"

    def test_timeout_records_budget(self):
        err = ExecutionTimeout("slow", steps=1000, index=3)
        assert err.details()["steps"] == 1000
        assert isinstance(err, ExecutionError)

    def test_task_errors_record_attempts(self):
        err = TaskTimeoutError("hung", task="TraceTask(...)", attempts=2,
                               timeout=1.5)
        details = err.details()
        assert details["attempts"] == 2
        assert details["timeout"] == 1.5


class TestSimulatorRaises:
    def test_bad_jump_carries_fault_site(self):
        image = _build([li(3, T0), jmp(T0), halt()])
        from repro.sim.functional import Machine

        machine = Machine(image, record_trace=False)
        machine.run(max_steps=100)
        # Wild jumps are an architectural fault, not a model error.
        assert machine.fault_code is not None

    def test_timeout_is_structured(self):
        from repro.isa.build import br

        builder = ProgramBuilder()
        builder.label("main")
        builder.emit(jmp_self := br("main"))
        builder.set_entry("main")
        image = builder.build()
        with pytest.raises(ExecutionTimeout) as excinfo:
            run_program(image, record_trace=False, max_steps=50)
        assert excinfo.value.steps == 50
        assert isinstance(excinfo.value, SimulationError)

    def test_mfi_error_is_acf_error_and_value_error(self):
        from repro.acf.mfi import MfiError, mfi_production_source

        with pytest.raises(MfiError):
            mfi_production_source("nonsense")
        with pytest.raises(ValueError):       # the deprecation shim
            mfi_production_source("nonsense")
        assert issubclass(MfiError, AcfError)

    def test_compression_and_specialization_errors_are_acf_errors(self):
        from repro.acf.compression import CompressionError
        from repro.acf.specialization import SpecializationError

        for cls in (CompressionError, SpecializationError):
            assert issubclass(cls, AcfError)
            assert issubclass(cls, ValueError)    # the deprecation shim

    def test_build_and_assembly_errors_are_repro_errors(self):
        from repro.isa.assembler import AssemblyError
        from repro.program.builder import BuildError

        for cls in (BuildError, AssemblyError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)    # the legacy base

    def test_acf_config_errors_replace_bare_value_error(self):
        from repro.acf.composition import build_composition
        from repro.workloads.generator import generate_by_name

        image = generate_by_name("mcf", scale=0.05)
        with pytest.raises(AcfConfigError):
            build_composition(image, "nonsense")
        with pytest.raises(ValueError):       # the deprecation shim
            build_composition(image, "nonsense")


class TestConfigValidation:
    """Machine, cache and predictor configs reject bad values when they
    are built, with a typed error that is still a ``ValueError``."""

    def test_config_error_keeps_value_error_base(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)
        assert not is_retryable(ConfigError("bad geometry"))

    @pytest.mark.parametrize("line_bytes", [48, 96, 3])
    def test_cache_line_must_be_a_power_of_two(self, line_bytes):
        with pytest.raises(ConfigError, match="power of two"):
            CacheConfig(size_bytes=line_bytes * 64, assoc=2,
                        line_bytes=line_bytes)

    def test_cache_geometry_errors_are_typed(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, assoc=1)
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=128, assoc=3, line_bytes=64)

    def test_power_of_two_lines_accepted(self):
        for line_bytes in (1, 32, 64, 128):
            CacheConfig(size_bytes=line_bytes * 64, assoc=2,
                        line_bytes=line_bytes)

    @pytest.mark.parametrize("kwargs", [
        dict(btb_entries=0),
        dict(btb_entries=-4),
        dict(gshare_bits=-1),
        dict(ras_entries=-1),
    ])
    def test_predictor_rejects_bad_sizes(self, kwargs):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(**kwargs)

    def test_predictor_accepts_degenerate_but_valid_sizes(self):
        BranchPredictorConfig(btb_entries=1, gshare_bits=0, ras_entries=0)

    @pytest.mark.parametrize("field", ["width", "rob_entries", "rs_entries"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_machine_rejects_empty_pipeline_resources(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            MachineConfig().with_changes(**{field: value})


class TestRetryClassification:
    def test_repro_errors_answer_for_themselves(self):
        assert not is_retryable(CampaignError("config mistake"))
        assert not is_retryable(ExecutionError("stray codeword"))
        assert is_retryable(WorkerCrashError("worker died"))
        assert is_retryable(TaskTimeoutError("hung"))
        assert is_retryable(CircuitOpenError("pool broke"))

    def test_unknown_exceptions_are_transient_infrastructure(self):
        # Anything outside the taxonomy (a pickled RuntimeError from a
        # dying worker, an OSError from the pool) is retried.
        assert is_retryable(RuntimeError("worker killed"))
        assert is_retryable(OSError("fork failed"))

    def test_fabric_errors_sit_in_the_hierarchy(self):
        assert issubclass(FabricError, HarnessError)
        assert issubclass(CircuitOpenError, FabricError)


class TestBackoffDelay:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay(1, key="f0001") == backoff_delay(1,
                                                              key="f0001")
        assert backoff_delay(1, key="f0001") != backoff_delay(1,
                                                              key="f0002")
        assert backoff_delay(1, key="f0001") != backoff_delay(2,
                                                              key="f0001")

    def test_exponential_window_with_bounded_jitter(self):
        for attempt in (1, 2, 3, 4):
            window = 0.5 * (2 ** (attempt - 1))
            delay = backoff_delay(attempt, key="t")
            assert 0.5 * window <= delay <= window

    def test_cap_bounds_the_window(self):
        assert backoff_delay(30, cap=2.0, key="t") <= 2.0

    def test_zero_base_disables_sleeping(self):
        assert backoff_delay(3, base=0.0, key="t") == 0.0
        assert backoff_delay(3, base=-1.0) == 0.0
