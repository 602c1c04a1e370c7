"""Shared fixtures and helpers for the test suite."""

import os

import pytest

from repro.isa.build import (
    Imm,
    addq,
    bis,
    bne,
    bsr,
    halt,
    lda,
    ldq,
    out,
    ret,
    stq,
    subq,
)
from repro.isa.registers import parse_reg
from repro.program.builder import ProgramBuilder

A0 = parse_reg("a0")
A1 = parse_reg("a1")
A2 = parse_reg("a2")
T0 = parse_reg("t0")
T1 = parse_reg("t1")
RA = parse_reg("ra")
SP = parse_reg("sp")
V0 = parse_reg("v0")
ZERO = parse_reg("zero")


@pytest.fixture(autouse=True, scope="session")
def _hermetic_trace_cache(tmp_path_factory):
    """Unless the caller pins a cache location, point the persistent trace
    cache at a per-session temp directory so test runs never touch (or
    depend on) the user's real ``~/.cache/repro-dise``."""
    if "REPRO_TRACE_CACHE" not in os.environ:
        os.environ["REPRO_TRACE_CACHE"] = str(
            tmp_path_factory.mktemp("trace-cache")
        )
    yield


def build_loop_program(iterations=5, with_function=False):
    """A small program: sums iterations into memory, emits a checksum.

    Exercises loads, stores, arithmetic, a loop branch, and (optionally) a
    call/return pair.  All memory accesses stay inside the data segment.
    """
    b = ProgramBuilder()
    b.alloc_data("acc", 4, init=[0])
    b.label("main")
    b.load_address(A1, "acc")
    b.emit(bis(ZERO, Imm(iterations), T0))
    if with_function:
        b.emit(bis(ZERO, ZERO, V0))
    b.label("loop")
    b.emit(ldq(A0, 0, A1))
    b.emit(addq(A0, T0, A0))
    b.emit(stq(A0, 0, A1))
    if with_function:
        b.emit(bsr(RA, "leaf"))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(ldq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    if with_function:
        b.label("leaf")
        b.emit(addq(V0, Imm(1), V0))
        b.emit(ret(RA))
    b.set_entry("main")
    return b.build()


@pytest.fixture
def figure_fabric(monkeypatch):
    """Configure the fabric that parallel figure runs construct.

    Call the returned function with extra ``Fabric`` options (an executor
    factory, a chaos plan, a watchdog); backoff between retries is zero.
    """
    from repro.harness import experiments

    real = experiments.Fabric

    def configure(**options):
        monkeypatch.setattr(
            experiments, "Fabric",
            lambda *args, **kwargs: real(*args, **{**kwargs, "backoff": 0.0,
                                                  **options}))

    return configure


@pytest.fixture
def loop_image():
    return build_loop_program()


@pytest.fixture
def call_image():
    return build_loop_program(with_function=True)


MFI_SOURCE = """
P1: T.OPCLASS == store -> R1
P2: T.OPCLASS == load  -> R1
R1:
    srl   T.RS, #26, $dr1
    xor   $dr1, $dr2, $dr1
    bne   $dr1, @__mfi_error
    T.INSN
"""
