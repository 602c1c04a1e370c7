"""The shared structured error taxonomy (repro.errors)."""

import pytest

from repro.errors import (
    AcfConfigError,
    AcfError,
    CacheCorruptionError,
    CampaignError,
    CheckpointError,
    CircuitOpenError,
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
