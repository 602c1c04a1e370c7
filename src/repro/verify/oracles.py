"""The lockstep execution oracles.

Each oracle states one of the paper's equivalence claims as a checkable
property over generated workloads and reports an :class:`OracleOutcome`:

``roundtrip``
    assemble -> disassemble -> reassemble is a fixed point for every
    instruction of the benchmark image *and* for canonical samples of
    every opcode in the ISA.
``acf_transparency``
    MFI (both variants), store-address tracing, and path profiling are
    observation-equivalent to the unguarded run on fault-free programs
    (``app`` projection + user-visible snapshot).
``dise_vs_static``
    running under the MFI production set dynamically retires the same
    instruction sequence as the image statically rewritten with
    :func:`repro.program.rewriter.rewrite_with_productions` (``retire``
    projection — values are masked because static relayout legitimately
    changes code addresses), with identical outputs and fault state.
``compression_identity``
    the compressed image executed under its decompression productions
    retires the original instruction sequence with identical outputs.
``functional_vs_cycle``
    the cycle simulator retires exactly the functional simulator's op
    sequence, in order, with monotonically non-decreasing retire times.
``batch_cohort``
    a cohort of data-seed variants stepped by the batch engine
    (:class:`repro.sim.batch.BatchMachine`) is observation-equivalent
    (``full`` projection) to the same lanes run serially on the
    translated scalar tier, with identical outputs, fault state and
    retirement counts per lane.

On any mismatch the oracle (optionally) bisects to the first divergent
retirement and attaches a :class:`~repro.verify.bisect.DivergenceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.config import DiseConfig
from repro.errors import ReproError
from repro.verify.bisect import DivergenceReport, bisect_divergence
from repro.verify.observe import Observer, snapshot_state

#: All oracle names, in canonical execution order.
ORACLES = ("roundtrip", "acf_transparency", "dise_vs_static",
           "compression_identity", "functional_vs_cycle", "batch_cohort")

#: Perfect replacement-table config: conformance oracles check functional
#: equivalence, not timing, so RT capacity effects are irrelevant here.
_FUNCTIONAL_DISE = DiseConfig(rt_perfect=True)

_DEFAULT_MAX_STEPS = 10_000_000


@dataclass
class OracleOutcome:
    """Result of one (oracle, benchmark) conformance check."""

    oracle: str
    benchmark: str
    #: ``"pass"``, ``"diverged"`` or ``"error"``.
    status: str
    #: Number of sub-comparisons the oracle performed.
    checks: int = 0
    detail: str = ""
    report: Optional[DivergenceReport] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "benchmark": self.benchmark,
            "status": self.status,
            "checks": self.checks,
            "detail": self.detail,
            "report": self.report.to_dict() if self.report else None,
        }


def _generate(benchmark: str, scale: float):
    from repro.workloads import generate_by_name

    return generate_by_name(benchmark, scale=scale)


def _runner(installation, max_steps: int) -> Callable:
    """A deterministic ``run(observer) -> TraceResult`` closure."""

    def run(observer=None):
        return installation.run(
            dise_config=_FUNCTIONAL_DISE, record_trace=False,
            max_steps=max_steps, observer=observer,
        )

    return run


def compare_runs(run_left, run_right, projection: str,
                 left_label: str = "left", right_label: str = "right",
                 snapshot_scope: Optional[str] = None,
                 mem_range: Optional[Tuple[int, int]] = None,
                 compare_outputs: bool = False,
                 bisect: bool = True, window: int = 256
                 ) -> Tuple[Optional[DivergenceReport], Optional[str]]:
    """Compare two deterministic executions under a projection.

    Returns ``(report, detail)`` — both ``None`` when the runs are
    observation-equivalent.  ``snapshot_scope`` additionally compares the
    final architectural snapshots (``"user"`` restricted to ``mem_range``);
    ``compare_outputs`` additionally requires identical output streams and
    fault state, which is layout-independent and so safe for relayouting
    transformations where value-bearing snapshots are not.
    """
    left_obs = Observer(projection)
    right_obs = Observer(projection)
    left_trace = run_left(left_obs)
    right_trace = run_right(right_obs)

    if (left_obs.hexdigest() != right_obs.hexdigest()
            or left_obs.count != right_obs.count):
        detail = (
            f"{projection} streams differ: {left_label} "
            f"{left_obs.count} obs {left_obs.hexdigest()[:16]}, "
            f"{right_label} {right_obs.count} obs "
            f"{right_obs.hexdigest()[:16]}"
        )
        report = None
        if bisect:
            report = bisect_divergence(
                run_left, run_right, projection,
                left_label=left_label, right_label=right_label,
                window=window,
            )
        return report, detail

    if snapshot_scope is not None:
        left_state = snapshot_state(left_trace, scope=snapshot_scope,
                                    mem_range=mem_range)
        right_state = snapshot_state(right_trace, scope=snapshot_scope,
                                     mem_range=mem_range)
        if left_state != right_state:
            diffs = [key for key in left_state
                     if left_state[key] != right_state[key]]
            report = DivergenceReport(
                kind="snapshot", projection=projection,
                left_label=left_label, right_label=right_label,
                detail=f"final state differs in: {', '.join(diffs)}",
            )
            return report, report.detail

    if compare_outputs:
        failure = _outputs_match(left_trace, right_trace,
                                 left_label, right_label)
        if failure is not None:
            report = DivergenceReport(
                kind="snapshot", projection=projection,
                left_label=left_label, right_label=right_label,
                detail=failure,
            )
            return report, failure
    return None, None


def _outputs_match(left_trace, right_trace, left_label, right_label
                   ) -> Optional[str]:
    if left_trace.outputs != right_trace.outputs:
        return (f"outputs differ: {left_label} {left_trace.outputs!r} vs "
                f"{right_label} {right_trace.outputs!r}")
    if left_trace.fault_code != right_trace.fault_code:
        return (f"fault codes differ: {left_label} "
                f"{left_trace.fault_code!r} vs {right_label} "
                f"{right_trace.fault_code!r}")
    return None


# ----------------------------------------------------------------------
# roundtrip
# ----------------------------------------------------------------------
def _canonical_samples():
    """Canonical instruction samples covering every opcode and format
    variant (register/literal operate forms, zero/non-zero fault ra...)."""
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Format, Opcode

    for op in Opcode:
        fmt = op.format
        if fmt is Format.NULLARY:
            yield Instruction(op)
        elif fmt is Format.MEM:
            yield Instruction(op, ra=4, rb=5, imm=-8)
            yield Instruction(op, ra=0, rb=31, imm=32767)
        elif fmt is Format.BRANCH:
            yield Instruction(op, ra=3, imm=2)
            yield Instruction(op, ra=31, imm=-5)
            yield Instruction(op, ra=4, imm=9)
        elif fmt is Format.OPERATE:
            yield Instruction(op, ra=1, rb=2, rc=3)
            yield Instruction(op, ra=1, imm=255, rc=3)
        elif fmt is Format.JUMP:
            yield Instruction(op, ra=26, rb=27)
            yield Instruction(op, ra=None, rb=3)
        elif fmt is Format.CODEWORD:
            yield Instruction(op, ra=1, rb=2, rc=3, imm=77)


def _check_roundtrip(instr, pc: Optional[int]) -> Optional[str]:
    from repro.isa.assembler import parse_instruction
    from repro.isa.disassembler import disassemble
    from repro.isa.encoding import canonicalize, encode, decode

    word = encode(instr)
    decoded = decode(word)
    text = disassemble(decoded)
    try:
        reparsed = parse_instruction(text)
    except ValueError as exc:
        return f"{text!r} does not reassemble: {exc}"
    if canonicalize(reparsed) != decoded:
        return (f"{text!r} reassembles to a different instruction: "
                f"{canonicalize(reparsed)} != {decoded}")
    if encode(reparsed) != word:
        return (f"{text!r} re-encodes to {encode(reparsed):#010x}, "
                f"expected {word:#010x}")
    return None


def oracle_roundtrip(benchmark: str, scale: float, **_kwargs) -> OracleOutcome:
    image = _generate(benchmark, scale)
    checks = 0
    for index, instr in enumerate(image.instructions):
        checks += 1
        failure = _check_roundtrip(instr, image.addresses[index])
        if failure is not None:
            pc = image.addresses[index]
            report = DivergenceReport(
                kind="roundtrip", projection=None,
                left_label="image", right_label="reassembled",
                index=index,
                detail=f"pc={pc:#x} index={index}: {failure}",
            )
            return OracleOutcome("roundtrip", benchmark, "diverged",
                                 checks=checks, detail=report.detail,
                                 report=report)
    for instr in _canonical_samples():
        checks += 1
        failure = _check_roundtrip(instr, None)
        if failure is not None:
            report = DivergenceReport(
                kind="roundtrip", projection=None,
                left_label="sample", right_label="reassembled",
                detail=f"{instr.opcode.name}: {failure}",
            )
            return OracleOutcome("roundtrip", benchmark, "diverged",
                                 checks=checks, detail=report.detail,
                                 report=report)
    return OracleOutcome("roundtrip", benchmark, "pass", checks=checks)


# ----------------------------------------------------------------------
# acf_transparency
# ----------------------------------------------------------------------
def _transparency_acfs(image):
    from repro.acf.mfi import attach_mfi
    from repro.acf.profiling import attach_path_profiling
    from repro.acf.tracing import attach_sat

    return (
        attach_mfi(image, variant="dise3"),
        attach_mfi(image, variant="dise4"),
        attach_sat(image),
        attach_path_profiling(image),
    )


def oracle_acf_transparency(benchmark: str, scale: float,
                            max_steps: int = _DEFAULT_MAX_STEPS,
                            bisect: bool = True, window: int = 256,
                            **_kwargs) -> OracleOutcome:
    from repro.acf.base import plain_installation

    image = _generate(benchmark, scale)
    plain = plain_installation(image)
    # ACF scratch state (SAT buffer, profile table, dedicated registers)
    # lives outside the data segment by construction, so a user-scoped
    # snapshot over the data segment must be untouched.
    data_range = (image.data_base, image.data_base + image.data_size)
    checks = 0
    for acf in _transparency_acfs(image):
        checks += 1
        report, detail = compare_runs(
            _runner(plain, max_steps), _runner(acf, max_steps),
            projection="app", left_label="plain", right_label=acf.name,
            snapshot_scope="user", mem_range=data_range,
            bisect=bisect, window=window,
        )
        if detail is not None:
            return OracleOutcome("acf_transparency", benchmark, "diverged",
                                 checks=checks,
                                 detail=f"{acf.name}: {detail}",
                                 report=report)
    return OracleOutcome("acf_transparency", benchmark, "pass", checks=checks)


# ----------------------------------------------------------------------
# dise_vs_static
# ----------------------------------------------------------------------
def oracle_dise_vs_static(benchmark: str, scale: float,
                          variant: str = "dise3",
                          max_steps: int = _DEFAULT_MAX_STEPS,
                          bisect: bool = True, window: int = 256,
                          **_kwargs) -> OracleOutcome:
    from repro.acf.base import AcfInstallation
    from repro.acf.mfi import attach_mfi, mfi_production_set
    from repro.program.rewriter import rewrite_with_productions

    dynamic = attach_mfi(_generate(benchmark, scale), variant=variant)
    pset = mfi_production_set(dynamic.image, variant=variant)
    static_image = rewrite_with_productions(dynamic.image, pset)
    static = AcfInstallation(image=static_image, production_sets=[],
                             init_machine=dynamic.init_machine,
                             name=f"static-{variant}")

    report, detail = compare_runs(
        _runner(dynamic, max_steps), _runner(static, max_steps),
        projection="retire", left_label="dise", right_label="static",
        compare_outputs=True, bisect=bisect, window=window,
    )
    if detail is not None:
        return OracleOutcome("dise_vs_static", benchmark, "diverged",
                             checks=2, detail=detail, report=report)
    return OracleOutcome("dise_vs_static", benchmark, "pass", checks=2)


# ----------------------------------------------------------------------
# compression_identity
# ----------------------------------------------------------------------
def oracle_compression_identity(benchmark: str, scale: float,
                                max_steps: int = _DEFAULT_MAX_STEPS,
                                bisect: bool = True, window: int = 256,
                                **_kwargs) -> OracleOutcome:
    from repro.acf.base import plain_installation
    from repro.acf.compression import compress_image

    image = _generate(benchmark, scale)
    result = compress_image(image)
    original = plain_installation(image)
    compressed = result.installation()

    report, detail = compare_runs(
        _runner(original, max_steps), _runner(compressed, max_steps),
        projection="retire", left_label="original", right_label="compressed",
        compare_outputs=True, bisect=bisect, window=window,
    )
    if detail is not None:
        return OracleOutcome("compression_identity", benchmark, "diverged",
                             checks=2, detail=detail, report=report)
    return OracleOutcome("compression_identity", benchmark, "pass",
                         checks=2)


# ----------------------------------------------------------------------
# functional_vs_cycle
# ----------------------------------------------------------------------
def _op_observation(op) -> tuple:
    return (op.pc, op.disepc, op.opcode.name, op.mem_addr, op.is_store,
            op.ctrl_taken)


def oracle_functional_vs_cycle(benchmark: str, scale: float,
                               max_steps: int = _DEFAULT_MAX_STEPS,
                               **_kwargs) -> OracleOutcome:
    from repro.sim.cycle import simulate_trace
    from repro.sim.functional import run_program

    image = _generate(benchmark, scale)
    functional_obs = Observer("full")
    trace = run_program(image, record_trace=True, max_steps=max_steps,
                        observer=functional_obs)

    # Run BOTH replay engines: the reference scalar loop defines the
    # semantics, the outcome engine must match it bit-for-bit — results,
    # retire streams and timestamps alike.
    retired: List[tuple] = []
    retire_times: List[int] = []

    def retire_observer(op, when):
        retired.append(_op_observation(op))
        retire_times.append(when)

    outcome_retired: List[tuple] = []
    outcome_times: List[int] = []

    def outcome_observer(op, when):
        outcome_retired.append(_op_observation(op))
        outcome_times.append(when)

    ref_result = simulate_trace(trace, retire_observer=retire_observer,
                                engine="reference")
    out_result = simulate_trace(trace, retire_observer=outcome_observer,
                                engine="outcome")

    checks = 5
    if ref_result != out_result:
        diffs = [
            f"{field}: reference {lhs} vs outcome {rhs}"
            for field, lhs, rhs in (
                (name, getattr(ref_result, name), getattr(out_result, name))
                for name in vars(ref_result)
            )
            if lhs != rhs
        ]
        return OracleOutcome(
            "functional_vs_cycle", benchmark, "diverged", checks=checks,
            detail="cycle engines disagree: " + "; ".join(diffs),
        )
    if retired != outcome_retired or retire_times != outcome_times:
        index = next(
            (i for i, (lhs, rhs) in enumerate(
                zip(zip(retired, retire_times),
                    zip(outcome_retired, outcome_times)))
             if lhs != rhs),
            min(len(retired), len(outcome_retired)),
        )
        return OracleOutcome(
            "functional_vs_cycle", benchmark, "diverged", checks=checks,
            detail=(f"cycle engines disagree on retirement {index}: "
                    "reference vs outcome retire streams differ"),
        )
    if functional_obs.count != len(trace.ops):
        return OracleOutcome(
            "functional_vs_cycle", benchmark, "diverged", checks=checks,
            detail=(f"observer saw {functional_obs.count} retirements but "
                    f"the trace holds {len(trace.ops)} ops"),
        )
    expected = [_op_observation(op) for op in trace.ops]
    if retired != expected:
        index = next(
            (i for i, (lhs, rhs) in enumerate(zip(expected, retired))
             if lhs != rhs),
            min(len(expected), len(retired)),
        )
        lhs = expected[index] if index < len(expected) else None
        rhs = retired[index] if index < len(retired) else None
        report = DivergenceReport(
            kind="stream", projection="retire",
            left_label="functional", right_label="cycle", index=index,
            detail=(f"retired op {index} differs: functional {lhs!r} vs "
                    f"cycle {rhs!r}"),
        )
        return OracleOutcome("functional_vs_cycle", benchmark, "diverged",
                             checks=checks, detail=report.detail,
                             report=report)
    non_monotonic = next(
        (i for i in range(1, len(retire_times))
         if retire_times[i] < retire_times[i - 1]),
        None,
    )
    if non_monotonic is not None:
        return OracleOutcome(
            "functional_vs_cycle", benchmark, "diverged", checks=checks,
            detail=(f"retire times are not monotonic at op {non_monotonic}: "
                    f"{retire_times[non_monotonic - 1]} -> "
                    f"{retire_times[non_monotonic]}"),
        )
    return OracleOutcome("functional_vs_cycle", benchmark, "pass",
                         checks=checks)


# ----------------------------------------------------------------------
# batch_cohort
# ----------------------------------------------------------------------
def oracle_batch_cohort(benchmark: str, scale: float,
                        variant: str = "dise3",
                        max_steps: int = _DEFAULT_MAX_STEPS,
                        **_kwargs) -> OracleOutcome:
    from repro.acf.base import AcfInstallation
    from repro.acf.mfi import attach_mfi
    from repro.sim.batch import BatchMachine
    from repro.workloads import get_profile
    from repro.workloads.generator import reseed_data

    # Every reseeded lane shares ``inst.image``'s text and, through
    # ``reseed_data``, its translation and compiled-block stores.
    inst = attach_mfi(_generate(benchmark, scale), variant=variant)
    profile = get_profile(benchmark)
    seeds = (None, 1, 2, 3)

    def lane(seed):
        target = inst
        if seed is not None:
            target = AcfInstallation(
                image=reseed_data(inst.image, profile, seed),
                production_sets=inst.production_sets,
                init_machine=inst.init_machine, name=inst.name,
            )
        machine = target.make_machine(_FUNCTIONAL_DISE, record_trace=False,
                                      dispatch="translated")
        obs = Observer("full")
        machine._install_observer(obs)
        return machine, obs

    serial = []
    for seed in seeds:
        machine, obs = lane(seed)
        machine.run(max_steps=max_steps)
        serial.append((machine, obs))

    cohort = BatchMachine()
    batched = []
    for seed in seeds:
        machine, obs = lane(seed)
        cohort.add_lane(machine, max_steps=max_steps)
        batched.append((machine, obs))
    cohort.run()
    for outcome in cohort.outcomes():
        outcome.raise_or_result(max_steps)

    checks = len(seeds)
    for index, ((sm, sobs), (bm, bobs)) in enumerate(zip(serial, batched)):
        mismatch = None
        if sobs.hexdigest() != bobs.hexdigest() or sobs.count != bobs.count:
            mismatch = (f"full streams differ: serial {sobs.count} obs "
                        f"{sobs.hexdigest()[:16]}, batch {bobs.count} obs "
                        f"{bobs.hexdigest()[:16]}")
        elif (sm.halted, sm.fault_code) != (bm.halted, bm.fault_code):
            mismatch = (f"fault state differs: serial "
                        f"({sm.halted}, {sm.fault_code!r}) vs batch "
                        f"({bm.halted}, {bm.fault_code!r})")
        elif sm.outputs != bm.outputs:
            mismatch = (f"outputs differ: serial {sm.outputs!r} vs "
                        f"batch {bm.outputs!r}")
        elif (sm.instructions, sm.app_instructions, sm.expansions) != \
                (bm.instructions, bm.app_instructions, bm.expansions):
            mismatch = (
                f"retirement counts differ: serial "
                f"({sm.instructions}, {sm.app_instructions}, "
                f"{sm.expansions}) vs batch ({bm.instructions}, "
                f"{bm.app_instructions}, {bm.expansions})")
        if mismatch is not None:
            seed = seeds[index]
            report = DivergenceReport(
                kind="stream", projection="full",
                left_label="serial", right_label="batch", index=index,
                detail=f"lane {index} (data_seed={seed}): {mismatch}",
            )
            return OracleOutcome("batch_cohort", benchmark, "diverged",
                                 checks=checks, detail=report.detail,
                                 report=report)
    return OracleOutcome("batch_cohort", benchmark, "pass", checks=checks)


_ORACLE_FNS = {
    "roundtrip": oracle_roundtrip,
    "acf_transparency": oracle_acf_transparency,
    "dise_vs_static": oracle_dise_vs_static,
    "compression_identity": oracle_compression_identity,
    "functional_vs_cycle": oracle_functional_vs_cycle,
    "batch_cohort": oracle_batch_cohort,
}


def run_oracle(oracle: str, benchmark: str, scale: float = 0.05,
               variant: str = "dise3", max_steps: int = _DEFAULT_MAX_STEPS,
               bisect: bool = True, window: int = 256) -> OracleOutcome:
    """Run one oracle against one benchmark profile.

    Never raises for conformance failures (``status="diverged"``) or
    model-level errors (``status="error"``, with the structured details);
    programming errors propagate.
    """
    try:
        fn = _ORACLE_FNS[oracle]
    except KeyError:
        raise ValueError(
            f"unknown oracle {oracle!r}; expected one of {ORACLES}"
        ) from None
    try:
        return fn(benchmark, scale, variant=variant, max_steps=max_steps,
                  bisect=bisect, window=window)
    except ReproError as exc:
        return OracleOutcome(oracle, benchmark, "error",
                             detail=f"{type(exc).__name__}: {exc}")
