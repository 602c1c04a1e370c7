"""Memory fault isolation (MFI) — Section 3.1 / Figure 1 / Figure 6.

Three implementations are provided:

* **DISE3** — the paper's preferred DISE formulation: three inserted check
  instructions per unsafe operation.  DISE's control model disallows jumps
  into the middle of replacement sequences, so no defensive copy of the
  address register is needed.
* **DISE4** — the same four-instruction check sequence binary rewriting
  uses (extra defensive copy included), for apples-to-apples comparison.
* **Binary rewriting** — the software baseline: the check sequence is
  statically inserted before every unsafe instruction; it scavenges user
  registers and pays the text-size growth the paper's evaluation measures.

Unsafe instructions are loads, stores and indirect jumps.  Loads/stores are
checked against the data-segment id, indirect jumps against the
code-segment id (segment id = address >> 26).
"""

from __future__ import annotations

from typing import Tuple

from repro.acf.base import AcfInstallation
from repro.core.language import parse_productions
from repro.errors import AcfError
from repro.core.production import ProductionSet
from repro.isa.assembler import Label
from repro.isa.build import Imm, bis, fault, li, srl, xor
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import UNSAFE_OPCLASSES, OpClass, Opcode
from repro.isa.registers import dise_reg, parse_reg
from repro.program.builder import ProgramBuilder, SEGMENT_SHIFT
from repro.program.image import ProgramImage
from repro.program.rewriter import image_to_items, label_names

#: Fault code raised by the MFI error handler.
MFI_FAULT_CODE = 7

#: Label of the error handler stub appended to the program.
ERROR_LABEL = "__mfi_error"

#: Dedicated register allocation.
DR_COPY = dise_reg(0)      # DISE4's defensive address copy
DR_SCRATCH = dise_reg(1)   # segment-extraction scratch
DR_DATA_SEG = dise_reg(2)  # legal data segment id
DR_CODE_SEG = dise_reg(3)  # legal code segment id

#: User registers scavenged by the binary-rewriting baseline (the paper
#: notes software fault isolation reserves up to five).
SCAVENGED_REGS = tuple(parse_reg(name) for name in ("t8", "t9", "t10", "t11"))


class MfiError(AcfError):
    """Raised when MFI cannot be applied (e.g. scavenged registers in use).

    Part of the :mod:`repro.errors` taxonomy; still catchable as
    ``ValueError`` for one release via the :class:`~repro.errors.AcfError`
    shim.
    """


def mfi_production_source(variant="dise3") -> str:
    """Production-language source for the MFI ACF (Figure 1 style)."""
    if variant == "dise3":
        return f"""
# Memory fault isolation, 3 inserted instructions (DISE semantics make the
# defensive copy unnecessary).
P1: T.OPCLASS == store -> R1
P2: T.OPCLASS == load  -> R1
P3: T.OPCLASS == indirect_jump -> R2
R1:
    srl   T.RS, #{SEGMENT_SHIFT}, $dr1
    xor   $dr1, $dr2, $dr1
    bne   $dr1, @{ERROR_LABEL}
    T.INSN
R2:
    srl   T.RS, #{SEGMENT_SHIFT}, $dr1
    xor   $dr1, $dr3, $dr1
    bne   $dr1, @{ERROR_LABEL}
    T.INSN
"""
    if variant == "dise4":
        return f"""
# Memory fault isolation, the rewriting baseline's 4-instruction sequence
# (defensive copy of the address register included).
P1: T.OPCLASS == store -> R1
P2: T.OPCLASS == load  -> R1
P3: T.OPCLASS == indirect_jump -> R2
R1:
    bis   T.RS, T.RS, $dr0
    srl   $dr0, #{SEGMENT_SHIFT}, $dr1
    xor   $dr1, $dr2, $dr1
    bne   $dr1, @{ERROR_LABEL}
    T.INSN
R2:
    bis   T.RS, T.RS, $dr0
    srl   $dr0, #{SEGMENT_SHIFT}, $dr1
    xor   $dr1, $dr3, $dr1
    bne   $dr1, @{ERROR_LABEL}
    T.INSN
"""
    raise MfiError(f"unknown MFI variant: {variant!r}")


def ensure_error_stub(image: ProgramImage) -> ProgramImage:
    """Append the ``__mfi_error`` handler stub if the image lacks one.

    The stub lands right after the last instruction; every other
    instruction keeps its address and size, and the entry stays put.  The
    tables are those a rebuild through
    :func:`~repro.program.rewriter.image_to_items` gives: one label per
    index (:func:`label_names`) in index order, then ``__mfi_error``; and
    load-address pairs in index order.
    """
    if ERROR_LABEL in image.symbols:
        return image
    count = image.instruction_count
    names = label_names(image)
    symbols = {names[index]: index for index in sorted(names)}
    symbols[ERROR_LABEL] = count
    stub_address = (image.addresses[-1] + image.sizes[-1] if count
                    else image.text_base)
    return ProgramImage(
        instructions=image.instructions + [fault(MFI_FAULT_CODE)],
        addresses=image.addresses + [stub_address],
        sizes=image.sizes + [INSTRUCTION_BYTES],
        target_index=image.target_index + [None],
        symbols=symbols,
        entry_index=image.entry_index,
        text_base=image.text_base,
        data_base=image.data_base,
        data_words=dict(image.data_words),
        data_size=image.data_size,
        load_addresses=dict(sorted(image.load_addresses.items())),
    )


def mfi_production_set(image: ProgramImage,
                       variant="dise3") -> ProductionSet:
    """Build the MFI production set against an image's error handler."""
    if ERROR_LABEL not in image.symbols:
        raise MfiError("image has no __mfi_error stub; call ensure_error_stub")
    return parse_productions(
        mfi_production_source(variant),
        name=f"mfi-{variant}",
        scope="kernel",
        symbols={ERROR_LABEL: image.symbol_address(ERROR_LABEL)},
    )


def segment_ids(image: ProgramImage) -> Tuple[int, int]:
    """(data segment id, code segment id) for an image."""
    return (image.data_base >> SEGMENT_SHIFT,
            image.text_base >> SEGMENT_SHIFT)


def attach_mfi(image: ProgramImage, variant="dise3") -> AcfInstallation:
    """Transparent DISE MFI: productions + dedicated-register init.

    The image is unmodified except for the appended error-handler stub
    (in a real system the handler lives in the MFI runtime).
    """
    image = ensure_error_stub(image)
    pset = mfi_production_set(image, variant=variant)
    data_seg, code_seg = segment_ids(image)

    def init(machine):
        machine.regs[DR_DATA_SEG] = data_seg
        machine.regs[DR_CODE_SEG] = code_seg

    return AcfInstallation(
        image=image, production_sets=[pset], init_machine=init,
        name=f"mfi-{variant}",
    )


# ----------------------------------------------------------------------
# Binary-rewriting baseline
# ----------------------------------------------------------------------
def _uses_scavenged(image: ProgramImage) -> bool:
    scavenged = frozenset(SCAVENGED_REGS)
    for instr in image.instructions:
        # Only an instruction naming a scavenged register in some field can
        # read or write one; check its exact dataflow only then.
        if instr.ra in scavenged or instr.rb in scavenged \
                or instr.rc in scavenged:
            regs = set(instr.source_regs())
            regs.add(instr.dest_reg())
            if regs & scavenged:
                return True
    return False


#: Emit a local error stub at the first safe point after this many emitted
#: instructions.  Rewriters keep error stubs near the checks (a single
#: far-away handler would need long-range branches everywhere); this also
#: keeps check-branch displacements short, which matters downstream when the
#: rewritten binary is compressed (Section 4.3).
STUB_INTERVAL = 300

#: Opcodes after which fall-through never happens: safe stub locations.
_BARRIERS = (Opcode.RET, Opcode.JMP, Opcode.HALT, Opcode.FAULT)


def rewrite_mfi(image: ProgramImage) -> AcfInstallation:
    """The software baseline: statically rewrite the binary with checks.

    Inserts the four-instruction check (defensive copy included) before
    every load, store and indirect jump, retargets all branches (handled by
    the rewriting substrate), plants a prologue that initialises the
    scavenged segment-id registers, and distributes local error stubs
    through the text.
    """
    if _uses_scavenged(image):
        raise MfiError(
            "program uses the registers the rewriter must scavenge "
            f"({[r for r in SCAVENGED_REGS]}); recompile reserving them"
        )
    data_seg, code_seg = segment_ids(image)
    t8, t9, t10, t11 = SCAVENGED_REGS
    entry_names = [n for n, i in image.symbols.items()
                   if i == image.entry_index]
    if not entry_names:
        raise MfiError("image has no entry symbol to plant the prologue at")
    entry_name = entry_names[0]

    builder = ProgramBuilder(text_base=image.text_base,
                             data_base=image.data_base)
    builder.adopt_data(image.data_words, image.data_size)
    emitted = builder.items

    # The check sequence depends only on (address register, segment
    # register); instructions are immutable, so one copy serves every use.
    checks = {}
    stub_counter = 0
    since_stub = 0
    stub_pending = False
    branch = Instruction(Opcode.BNE, ra=t9, target=f"{ERROR_LABEL}_0")

    def plant_stub():
        emitted.append(Label(f"{ERROR_LABEL}_{stub_counter}"))
        emitted.append(fault(MFI_FAULT_CODE))

    for item in image_to_items(image):
        if isinstance(item, Instruction):
            opclass = item.opcode.opclass
            if opclass in UNSAFE_OPCLASSES:
                seg_reg = t11 if opclass is OpClass.INDIRECT_JUMP else t10
                addr_reg = item.rs
                check = checks.get((addr_reg, seg_reg))
                if check is None:
                    check = checks[addr_reg, seg_reg] = (
                        bis(addr_reg, addr_reg, t8),   # defensive copy
                        srl(t8, Imm(SEGMENT_SHIFT), t9),
                        xor(t9, seg_reg, t9),
                    )
                emitted.extend(check)
                emitted.append(branch)
                since_stub += 4
                stub_pending = True
            emitted.append(item)
            since_stub += 1
            if since_stub >= STUB_INTERVAL and item.opcode in _BARRIERS:
                plant_stub()
                stub_counter += 1
                since_stub = 0
                stub_pending = False
                branch = Instruction(Opcode.BNE, ra=t9,
                                     target=f"{ERROR_LABEL}_{stub_counter}")
        elif isinstance(item, Label):
            emitted.append(item)
            if item.name == entry_name:
                emitted.append(li(data_seg, t10))
                emitted.append(li(code_seg, t11))
                since_stub += 2
        else:  # LoadAddress: an ldah/lda pair
            emitted.append(item)
            since_stub += 2

    if stub_pending or stub_counter == 0:
        plant_stub()

    builder.set_entry(entry_name)
    return AcfInstallation(image=builder.build(), name="mfi-rewrite")
