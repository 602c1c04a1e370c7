"""The :class:`Instruction` value type.

An :class:`Instruction` is an immutable, hashable record of one machine
instruction.  Field meaning depends on the opcode's :class:`~repro.isa.opcodes.Format`:

======== =========================================================
Format   Fields
======== =========================================================
MEM      ``ra`` data/dest register, ``rb`` base register, ``imm``
         signed 16-bit displacement
BRANCH   ``ra`` test/link register, ``imm`` signed word displacement
         (relative to PC+4) or a symbolic ``target`` label pre-layout
OPERATE  ``ra`` first source, ``rb`` second source (or ``imm``
         8-bit unsigned literal), ``rc`` destination
JUMP     ``ra`` link register, ``rb`` target-address register
CODEWORD ``ra``/``rb``/``rc`` are the codeword parameters P1/P2/P3,
         ``imm`` is the 11-bit replacement-sequence tag
NULLARY  no fields
======== =========================================================

The DISE trigger-field accessors (:attr:`rs`, :attr:`rt`, :attr:`rd`) expose
the register roles that replacement-sequence directives ``T.RS``, ``T.RT``
and ``T.RD`` refer to (Section 2.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.isa.opcodes import Format, OpClass, Opcode
from repro.isa.registers import ZERO_REG, reg_name

#: Number of bytes occupied by one uncompressed instruction.
INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class Instruction:
    """One machine instruction (see module docstring for field roles)."""

    opcode: Opcode
    ra: Optional[int] = None
    rb: Optional[int] = None
    rc: Optional[int] = None
    imm: Optional[int] = None
    #: Symbolic branch target; resolved to ``imm`` at program layout.
    target: Optional[str] = None

    # ------------------------------------------------------------------
    # Classification shortcuts
    # ------------------------------------------------------------------
    @property
    def format(self):
        return self.opcode.format

    @property
    def opclass(self):
        return self.opcode.opclass

    @property
    def is_load(self):
        return self.opcode.is_load

    @property
    def is_store(self):
        return self.opcode.is_store

    @property
    def is_branch(self):
        return self.opcode.is_branch

    @property
    def is_codeword(self):
        return self.opcode.is_reserved

    # ------------------------------------------------------------------
    # DISE trigger-field roles (T.RS / T.RT / T.RD / T.IMM / T.P1-3)
    # ------------------------------------------------------------------
    @property
    def rs(self):
        """The trigger's primary source register (``T.RS``).

        For memory operations this is the *address* register, matching the
        paper's Figure 1 where ``srl T.RS, 26`` extracts the segment bits of
        the effective address.
        """
        fmt = self.format
        if fmt is Format.MEM:
            return self.rb
        if fmt is Format.OPERATE:
            return self.ra
        if fmt is Format.BRANCH:
            return self.ra
        if fmt is Format.JUMP:
            return self.rb
        if fmt is Format.CODEWORD:
            return self.ra
        return None

    @property
    def rt(self):
        """The trigger's secondary source register (``T.RT``)."""
        fmt = self.format
        if fmt is Format.MEM and self.is_store:
            return self.ra
        if fmt is Format.OPERATE:
            return self.rb
        if fmt is Format.CODEWORD:
            return self.rb
        return None

    @property
    def rd(self):
        """The trigger's destination register (``T.RD``)."""
        fmt = self.format
        if fmt is Format.MEM and self.is_load:
            return self.ra
        if fmt is Format.OPERATE:
            return self.rc
        if fmt is Format.JUMP:
            return self.ra
        if fmt is Format.BRANCH and self.opclass is OpClass.UNCOND_BRANCH:
            return self.ra
        if fmt is Format.CODEWORD:
            return self.rc
        return None

    @property
    def tag(self):
        """The 11-bit explicit replacement-sequence tag of a codeword."""
        if self.format is Format.CODEWORD:
            return self.imm
        return None

    # ------------------------------------------------------------------
    # Dataflow (used by the timing model and the binary rewriter)
    # ------------------------------------------------------------------
    def source_regs(self) -> Tuple[int, ...]:
        """Registers read by this instruction (zero register excluded)."""
        op, fmt = self.opcode, self.format
        srcs = []
        if fmt is Format.MEM:
            srcs.append(self.rb)
            if self.is_store:
                srcs.append(self.ra)
        elif fmt is Format.OPERATE:
            srcs.append(self.ra)
            if self.rb is not None:
                srcs.append(self.rb)
            if op in (Opcode.CMOVEQ, Opcode.CMOVNE):
                srcs.append(self.rc)  # conditional move reads the old dest
        elif fmt is Format.BRANCH:
            if op.is_cond_branch or op.is_dise_branch or \
                    op in (Opcode.OUT, Opcode.CTRL):
                srcs.append(self.ra)
        elif fmt is Format.JUMP:
            srcs.append(self.rb)
        elif fmt is Format.CODEWORD:
            # A raw codeword's register parameters are conservatively treated
            # as sources; after DISE expansion the replacement sequence's own
            # dataflow governs.
            srcs.extend(r for r in (self.ra, self.rb, self.rc) if r is not None)
        return tuple(r for r in srcs if r is not None and r != ZERO_REG)

    def dest_reg(self) -> Optional[int]:
        """Register written by this instruction, or ``None``."""
        op, fmt = self.opcode, self.format
        dest = None
        if fmt is Format.MEM and (self.is_load or op in (Opcode.LDA, Opcode.LDAH)):
            dest = self.ra
        elif fmt is Format.OPERATE:
            dest = self.rc
        elif fmt is Format.JUMP:
            dest = self.ra
        elif fmt is Format.BRANCH and self.opclass is OpClass.UNCOND_BRANCH:
            dest = self.ra
        if dest == ZERO_REG:
            return None
        return dest

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_fields(self, **changes) -> "Instruction":
        """Return a copy of this instruction with the given fields replaced."""
        fields = {"opcode": self.opcode, "ra": self.ra, "rb": self.rb,
                  "rc": self.rc, "imm": self.imm, "target": self.target}
        fields.update(changes)
        return Instruction(**fields)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self):
        op, fmt = self.opcode, self.format
        mnem = op.mnemonic

        def reg(r):
            return reg_name(r) if r is not None else "?"

        if fmt is Format.NULLARY:
            return mnem
        if fmt is Format.MEM:
            return f"{mnem} {reg(self.ra)}, {self.imm}({reg(self.rb)})"
        if fmt is Format.BRANCH:
            where = self.target if self.target is not None else self.imm
            if op is Opcode.OUT:
                # The displacement field is ignored by execution but kept
                # reassemblable when its bits are set.
                if self.imm in (None, 0):
                    return f"{mnem} {reg(self.ra)}"
                return f"{mnem} {reg(self.ra)}, {self.imm}"
            if op is Opcode.FAULT:
                # ``fault code`` for the common zero-reg form; ``fault reg,
                # code`` keeps a non-zero ra field reassemblable.
                if self.ra in (None, ZERO_REG):
                    return f"{mnem} {self.imm}"
                return f"{mnem} {reg(self.ra)}, {self.imm}"
            if self.opclass is OpClass.UNCOND_BRANCH:
                return f"{mnem} {reg(self.ra)}, {where}"
            return f"{mnem} {reg(self.ra)}, {where}"
        if fmt is Format.OPERATE:
            src2 = f"#{self.imm}" if self.rb is None else reg(self.rb)
            return f"{mnem} {reg(self.ra)}, {src2}, {reg(self.rc)}"
        if fmt is Format.JUMP:
            return f"{mnem} {reg(self.ra)}, ({reg(self.rb)})"
        if fmt is Format.CODEWORD:
            return (
                f"{mnem} p1={reg(self.ra)}, p2={reg(self.rb)}, "
                f"p3={reg(self.rc)}, tag={self.imm}"
            )
        raise AssertionError(f"unhandled format {fmt}")


#: A canonical no-op instruction.
NOP = Instruction(Opcode.NOP)
