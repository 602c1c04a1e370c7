"""A small two-pass assembler for the Alpha-like ISA.

The accepted syntax mirrors the rendering of :meth:`Instruction.__str__` so
that assembly and disassembly round-trip::

    main:
        bis   zero, #10, t0
    loop:
        subq  t0, #1, t0
        bne   t0, loop
        halt

Lines may carry ``#`` or ``;`` comments.  Labels end with ``:`` and may share
a line with an instruction.  Branch targets may be label names or numeric
word displacements.  Operate-format literals are written ``#N``.

The assembler produces a list of :class:`Item` (labels and instructions); the
program builder (:mod:`repro.program.builder`) turns those into a laid-out
:class:`~repro.program.image.ProgramImage`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Union

from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, OpClass, Opcode, parse_opcode
from repro.isa.registers import ZERO_REG, parse_reg


class AssemblyError(ReproError, ValueError):
    """Raised on malformed assembly input, with line information.

    Part of the :mod:`repro.errors` taxonomy; keeps its ``ValueError``
    base for existing ``except`` clauses.
    """

    def __init__(self, message, lineno=None, line=None):
        location = f" (line {lineno}: {line!r})" if lineno is not None else ""
        super().__init__(message + location)
        self.lineno = lineno
        self.line = line


@dataclass(frozen=True)
class Label:
    """A label definition in an assembly listing."""

    name: str


Item = Union[Label, Instruction]

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?\d+)?\(([^)]+)\)$")
_JUMP_OPERAND_RE = re.compile(r"^\(([^)]+)\)$")
_CODEWORD_KV_RE = re.compile(r"^(p1|p2|p3|tag)=(.+)$")


def _strip_comment(line):
    pos = line.find(";")
    if pos >= 0:
        line = line[:pos]
    # ``#`` also introduces operate literals (``#5``); treat it as a comment
    # only when not immediately followed by a digit or minus sign, scanning
    # past literal uses.
    search_from = 0
    while True:
        pos = line.find("#", search_from)
        if pos < 0:
            break
        following = line[pos + 1:pos + 2]
        if following.isdigit() or following == "-":
            search_from = pos + 1
            continue
        line = line[:pos]
        break
    return line.strip()


def _split_operands(text):
    return [part.strip() for part in text.split(",")] if text.strip() else []


def _parse_value(text):
    text = text.strip()
    if text.startswith("#"):
        text = text[1:]
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"expected a number, got {text!r}") from None


def _parse_target(text):
    """A branch target: numeric displacement or symbolic label."""
    text = text.strip()
    try:
        return int(text, 0), None
    except ValueError:
        return None, text


def parse_line(line) -> List[Item]:
    """Parse one assembly line into labels and at most one instruction."""
    items: List[Item] = []
    text = _strip_comment(line)
    while True:
        match = _LABEL_RE.match(text)
        if not match:
            break
        items.append(Label(match.group(1)))
        text = text[match.end():].strip()
    if not text:
        return items
    items.append(parse_instruction(text))
    return items


def parse_instruction(text) -> Instruction:
    """Parse a single instruction (no labels, no comments)."""
    parts = text.split(None, 1)
    opcode = parse_opcode(parts[0])
    operands = _split_operands(parts[1]) if len(parts) > 1 else []
    fmt = opcode.format

    if fmt is Format.NULLARY:
        if operands:
            raise AssemblyError(f"{opcode.mnemonic} takes no operands")
        return Instruction(opcode)

    if fmt is Format.MEM:
        if len(operands) != 2:
            raise AssemblyError(f"{opcode.mnemonic} needs 'reg, disp(base)'")
        ra = parse_reg(operands[0])
        match = _MEM_OPERAND_RE.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(f"bad memory operand: {operands[1]!r}")
        disp = int(match.group(1)) if match.group(1) else 0
        rb = parse_reg(match.group(2))
        return Instruction(opcode, ra=ra, rb=rb, imm=disp)

    if fmt is Format.BRANCH:
        if opcode is Opcode.OUT:
            if len(operands) == 1:
                return Instruction(opcode, ra=parse_reg(operands[0]))
            if len(operands) == 2:
                return Instruction(opcode, ra=parse_reg(operands[0]),
                                   imm=_parse_value(operands[1]))
            raise AssemblyError("out needs 'reg' or 'reg, disp'")
        if opcode is Opcode.FAULT:
            # ``fault code`` (zero ra) or ``fault reg, code``.
            if len(operands) == 1:
                return Instruction(opcode, ra=ZERO_REG,
                                   imm=_parse_value(operands[0]))
            if len(operands) == 2:
                return Instruction(opcode, ra=parse_reg(operands[0]),
                                   imm=_parse_value(operands[1]))
            raise AssemblyError("fault needs 'code' or 'reg, code'")
        if len(operands) == 1 and opcode.opclass in (
            OpClass.UNCOND_BRANCH,
            OpClass.DISE_BRANCH,
        ):
            # ``br target`` / ``dbr target`` shorthand with implicit zero reg.
            imm, target = _parse_target(operands[0])
            return Instruction(opcode, ra=ZERO_REG, imm=imm, target=target)
        if len(operands) != 2:
            raise AssemblyError(f"{opcode.mnemonic} needs 'reg, target'")
        ra = parse_reg(operands[0])
        imm, target = _parse_target(operands[1])
        return Instruction(opcode, ra=ra, imm=imm, target=target)

    if fmt is Format.OPERATE:
        if len(operands) != 3:
            raise AssemblyError(f"{opcode.mnemonic} needs 'src1, src2, dest'")
        ra = parse_reg(operands[0])
        rc = parse_reg(operands[2])
        src2 = operands[1]
        if src2.startswith("#") or src2.lstrip("-").isdigit():
            return Instruction(opcode, ra=ra, rb=None, rc=rc, imm=_parse_value(src2))
        return Instruction(opcode, ra=ra, rb=parse_reg(src2), rc=rc)

    if fmt is Format.JUMP:
        if len(operands) == 1:
            match = _JUMP_OPERAND_RE.match(operands[0].replace(" ", ""))
            if not match:
                raise AssemblyError(f"bad jump operand: {operands[0]!r}")
            return Instruction(opcode, ra=ZERO_REG, rb=parse_reg(match.group(1)))
        if len(operands) != 2:
            raise AssemblyError(f"{opcode.mnemonic} needs 'link, (addr)'")
        ra = parse_reg(operands[0])
        match = _JUMP_OPERAND_RE.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(f"bad jump operand: {operands[1]!r}")
        return Instruction(opcode, ra=ra, rb=parse_reg(match.group(1)))

    if fmt is Format.CODEWORD:
        fields = {"p1": ZERO_REG, "p2": ZERO_REG, "p3": ZERO_REG, "tag": 0}
        if operands and all(_CODEWORD_KV_RE.match(op.replace(" ", "")) for op in operands):
            for op in operands:
                key, value = _CODEWORD_KV_RE.match(op.replace(" ", "")).groups()
                fields[key] = _parse_value(value) if key == "tag" else parse_reg(value)
        elif len(operands) == 4:
            fields["p1"] = parse_reg(operands[0])
            fields["p2"] = parse_reg(operands[1])
            fields["p3"] = parse_reg(operands[2])
            fields["tag"] = _parse_value(operands[3])
        else:
            raise AssemblyError(
                f"{opcode.mnemonic} needs 'p1, p2, p3, tag' or key=value fields"
            )
        return Instruction(
            opcode, ra=fields["p1"], rb=fields["p2"], rc=fields["p3"], imm=fields["tag"]
        )

    raise AssertionError(f"unhandled format {fmt}")


def assemble(source) -> List[Item]:
    """Assemble a multi-line source string into labels and instructions."""
    items: List[Item] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            items.extend(parse_line(line))
        except AssemblyError:
            raise
        except ValueError as exc:
            raise AssemblyError(str(exc), lineno=lineno, line=line.strip()) from exc
    return items
