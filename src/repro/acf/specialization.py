"""Dynamic code specialization — Section 3.2's "other aware ACFs".

The paper's scenario: a loop contains a multiply with one loop-invariant
operand.  At runtime, *before* the loop executes, the invariant's value is
inspected and the multiply is rewritten:

* power of two            -> one shift
* sum of two powers       -> shift + shift + add
* difference of two powers-> shift + shift + subtract
* anything else           -> a constant-loaded multiply

A software specializer would have to rewrite one instruction into three,
retarget branches around the expansion, and scavenge a register for the
intermediate — with DISE, the static tool plants a codeword and the runtime
simply (re)defines its replacement sequence through the controller, using a
dedicated register for the intermediate.  Cost: one production definition,
~10-100x cheaper than software dynamic code generation (Section 3.2 cites
10-1000 cycles per generated instruction for software specializers).

Static half: :func:`plant_specializations` replaces eligible multiplies
with codewords (one tag per site).  Dynamic half: :class:`Specializer`
binds each tag to a value-specific replacement sequence at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AcfError
from repro.acf.base import AcfInstallation
from repro.core.controller import DiseController
from repro.core.directives import Lit, TrigField
from repro.core.pattern import PatternSpec
from repro.core.production import ProductionSet
from repro.core.replacement import ReplacementInstr, ReplacementSpec
from repro.isa.build import codeword
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ZERO_REG, dise_reg
from repro.program.image import ProgramImage
from repro.program.rewriter import image_to_items
from repro.program.builder import LoadAddress, ProgramBuilder
from repro.isa.assembler import Label

#: Reserved opcode used for specialization codewords (decompression uses
#: RES0; distinct opcodes keep the tag spaces disjoint — Section 3.3,
#: aware-with-aware composition).
SPECIALIZE_OPCODE = Opcode.RES1

#: Dedicated scratch register for multi-instruction specializations.
DR_SCRATCH = dise_reg(0)

#: ``ctrl`` function code for "bind the site whose tag is in the argument
#: register" (the instruction-based controller interface).
CTRL_BIND_CODE = 1

T_P1 = TrigField("p1")   # the variant (non-invariant) source register
T_P3 = TrigField("p3")   # the destination register


class SpecializationError(AcfError):
    """Raised when a site cannot be planted or bound."""


@dataclass(frozen=True)
class SpecializationSite:
    """One planted multiply: where it was, and which register is invariant."""

    tag: int
    index: int
    variant_reg: int
    invariant_reg: int
    dest_reg: int


def _decompose_two_powers(value: int) -> Optional[Tuple[int, int, str]]:
    """value == 2^a + 2^b -> (a, b, '+'); 2^a - 2^b -> (a, b, '-')."""
    for a in range(64):
        for b in range(64):
            if (1 << a) + (1 << b) == value:
                return a, b, "+"
            if (1 << a) - (1 << b) == value:
                return a, b, "-"
    return None


def specialized_sequence(value: int) -> ReplacementSpec:
    """The replacement sequence computing ``T.P3 = T.P1 * value``."""
    if value == 0:
        return ReplacementSpec(name="mul0", instrs=(
            ReplacementInstr(opcode=Opcode.BIS, ra=Lit(ZERO_REG),
                             rb=Lit(ZERO_REG), rc=T_P3),
        ))
    if value == 1:
        return ReplacementSpec(name="mul1", instrs=(
            ReplacementInstr(opcode=Opcode.BIS, ra=T_P1, rb=T_P1, rc=T_P3),
        ))
    if value > 0 and value & (value - 1) == 0:
        shift = value.bit_length() - 1
        return ReplacementSpec(name=f"mul2^{shift}", instrs=(
            ReplacementInstr(opcode=Opcode.SLL, ra=T_P1, imm=Lit(shift),
                             rc=T_P3),
        ))
    two_powers = _decompose_two_powers(value) if value > 0 else None
    if two_powers is not None:
        a, b, sign = two_powers
        combine = Opcode.ADDQ if sign == "+" else Opcode.SUBQ
        return ReplacementSpec(name=f"mul2^{a}{sign}2^{b}", instrs=(
            ReplacementInstr(opcode=Opcode.SLL, ra=T_P1, imm=Lit(a),
                             rc=Lit(DR_SCRATCH)),
            ReplacementInstr(opcode=Opcode.SLL, ra=T_P1, imm=Lit(b),
                             rc=T_P3),
            ReplacementInstr(opcode=combine, ra=Lit(DR_SCRATCH), rb=T_P3,
                             rc=T_P3),
        ))
    # General fallback: the invariant as a (wide, internal-format) literal.
    return ReplacementSpec(name=f"mul{value}", instrs=(
        ReplacementInstr(opcode=Opcode.BIS, ra=Lit(ZERO_REG),
                         imm=Lit(value), rc=Lit(DR_SCRATCH)),
        ReplacementInstr(opcode=Opcode.MULQ, ra=T_P1, rb=Lit(DR_SCRATCH),
                         rc=T_P3),
    ))


def plant_specializations(image: ProgramImage,
                          site_indexes: Optional[List[int]] = None
                          ) -> Tuple[ProgramImage, List[SpecializationSite]]:
    """Replace multiplies with specialization codewords (the static half).

    ``site_indexes`` selects instruction indexes to plant; by default every
    register-register ``mulq`` is planted.  The codeword carries P1 = the
    variant source, P3 = the destination; the invariant register is
    remembered per site for the runtime to read.
    """
    if site_indexes is None:
        site_indexes = [
            index for index, instr in enumerate(image.instructions)
            if instr.opcode is Opcode.MULQ and instr.rb is not None
        ]
    sites: List[SpecializationSite] = []
    replacements: Dict[int, Instruction] = {}
    for tag, index in enumerate(site_indexes):
        instr = image.instructions[index]
        if instr.opcode is not Opcode.MULQ or instr.rb is None:
            raise SpecializationError(
                f"site {index} is not a register multiply: {instr}"
            )
        # Convention: ra varies, rb is loop-invariant.
        sites.append(SpecializationSite(
            tag=tag, index=index, variant_reg=instr.ra,
            invariant_reg=instr.rb, dest_reg=instr.rc,
        ))
        replacements[index] = codeword(
            SPECIALIZE_OPCODE, instr.ra, ZERO_REG, instr.rc, tag
        )

    builder = ProgramBuilder(text_base=image.text_base,
                             data_base=image.data_base)
    builder.adopt_data(image.data_words, image.data_size)
    instruction_index = 0
    for item in image_to_items(image):
        if isinstance(item, (Label, LoadAddress)):
            builder.emit_items([item])
            if isinstance(item, LoadAddress):
                instruction_index += 2
            continue
        builder.emit(replacements.get(instruction_index, item))
        instruction_index += 1
    entry_names = [n for n, i in image.symbols.items()
                   if i == image.entry_index]
    if entry_names:
        builder.set_entry(entry_names[0])
    return builder.build(), sites


class Specializer:
    """The dynamic half: binds sites to value-specific sequences."""

    def __init__(self, sites: List[SpecializationSite]):
        self.sites = {site.tag: site for site in sites}
        self.production_set = ProductionSet("specialize", scope="user")
        self.production_set.add_production(
            PatternSpec(opcode=SPECIALIZE_OPCODE), tagged=True, name="P-spec"
        )
        self._controller: Optional[DiseController] = None
        self.bindings: Dict[int, int] = {}

    def install(self, controller: DiseController):
        """Attach to a controller (idempotent if the set is already in)."""
        self._controller = controller
        if self.production_set.name not in controller.installed_names():
            controller.install(self.production_set)

    def bind(self, machine, tag: int):
        """Specialize site ``tag`` against the invariant's *current* value.

        Reads the invariant register from the running machine — exactly the
        "runtime data values as replacement instruction constants" direction
        the paper's conclusion sketches.
        """
        if self._controller is None:
            raise SpecializationError("install() the specializer first")
        site = self.sites.get(tag)
        if site is None:
            raise SpecializationError(f"unknown specialization tag {tag}")
        value = machine.read_reg(site.invariant_reg)
        spec = specialized_sequence(value)
        if tag in self.production_set.replacements:
            del self.production_set.replacements[tag]
        self.production_set.add_replacement(tag, spec)
        self.bindings[tag] = value
        # Reinstall: the controller rebuilds the engine's PT/RT image (a
        # production redefinition flushes the cached entries).
        self._controller.uninstall(self.production_set.name)
        self._controller.install(self.production_set)
        return spec

    def bind_all(self, machine):
        for tag in self.sites:
            self.bind(machine, tag)

    def register_with(self, machine, code=None, arg_reg=16):
        """Expose binding through the instruction-based interface.

        After this, the *application itself* drives specialization: it
        executes ``ctrl a0, #CTRL_BIND_CODE`` with the site tag in ``a0``
        (by default) at its loop preheader, exactly the user-level
        controller access model of Section 2.3.
        """
        self.install(machine.controller)
        code = CTRL_BIND_CODE if code is None else code

        def handler(running_machine):
            tag = running_machine.read_reg(arg_reg)
            self.bind(running_machine, tag)

        machine.register_control_handler(code, handler)


def attach_specialization(image: ProgramImage,
                          site_indexes: Optional[List[int]] = None
                          ) -> Tuple[AcfInstallation, Specializer]:
    """Plant codewords and return (installation, specializer).

    The caller drives the runtime protocol: step the machine to the loop
    preheader, call ``specializer.bind_all(machine)``, then continue —
    mirroring an application invoking the user-level controller interface.
    """
    planted, sites = plant_specializations(image, site_indexes)
    specializer = Specializer(sites)

    installation = AcfInstallation(
        image=planted,
        production_sets=[specializer.production_set],
        name="specialization",
    )
    return installation, specializer
