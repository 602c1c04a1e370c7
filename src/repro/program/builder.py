"""Program builder: from symbolic items to a laid-out :class:`ProgramImage`.

The builder accepts labels, instructions (with symbolic branch targets), and
a ``load_address`` pseudo-instruction, plus named data allocations.  At
:meth:`ProgramBuilder.build` time it assigns addresses, resolves branch
targets to both displacement fields and instruction indexes, and expands
pseudo-instructions.

Binary-rewriting tools (the MFI rewriter, the compressors) operate either on
the symbolic item list or directly on finished images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.isa.assembler import Label, assemble
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Format, OpClass, Opcode
from repro.program.image import ProgramImage

#: Default segment bases: text in segment 0, data in segment 1 (the segment
#: id is the address's high-order bits, ``addr >> SEGMENT_SHIFT``).
SEGMENT_SHIFT = 26
DEFAULT_TEXT_BASE = 0x0040_0000   # segment 0
DEFAULT_DATA_BASE = 0x0400_0000   # segment 1


class BuildError(ReproError, ValueError):
    """Raised when a program cannot be laid out (e.g. undefined label).

    Part of the :mod:`repro.errors` taxonomy; keeps its ``ValueError``
    base for existing ``except`` clauses.
    """


#: Branch-format opcodes whose displacement names a text target when no
#: symbolic target is given (``out``/``fault`` use the field as an operand,
#: DISE branches move the DISEPC instead).  A tuple: ``in`` on enum members
#: is an identity scan, cheaper than hashing them.
_DISPLACEMENT_BRANCHES = tuple(
    op for op in Opcode
    if op.format is Format.BRANCH
    and op not in (Opcode.OUT, Opcode.FAULT) and not op.is_dise_branch
)


@dataclass(frozen=True)
class LoadAddress:
    """Pseudo-instruction: load a symbol's 32-bit address into a register.

    Expands to an ``ldah``/``lda`` pair at build time.
    """

    reg: int
    symbol: str


BuilderItem = Union[Label, Instruction, LoadAddress]


def split_address(addr: int):
    """Split ``addr`` into (high, low) halves for an ldah/lda pair."""
    low = addr & 0xFFFF
    if low >= 0x8000:
        low -= 0x10000
    high = (addr - low) >> 16
    return high & 0xFFFF, low


class ProgramBuilder:
    """Accumulates program items and data, then lays out an image."""

    def __init__(self, text_base=DEFAULT_TEXT_BASE, data_base=DEFAULT_DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base
        self.items: List[BuilderItem] = []
        self.data_symbols: Dict[str, int] = {}
        self.data_words: Dict[int, int] = {}
        self._data_cursor = data_base
        self._entry_label: Optional[str] = None
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Text emission
    # ------------------------------------------------------------------
    def label(self, name: str) -> str:
        self.items.append(Label(name))
        return name

    def fresh_label(self, prefix="L") -> str:
        """Generate a unique label name (not yet emitted)."""
        self._label_counter += 1
        return f".{prefix}{self._label_counter}"

    def emit(self, instr: Instruction):
        self.items.append(instr)

    def emit_many(self, instructions: Iterable[Instruction]):
        self.items.extend(instructions)

    def emit_items(self, items: Iterable[BuilderItem]):
        self.items.extend(items)

    def emit_assembly(self, source: str):
        self.items.extend(assemble(source))

    def load_address(self, reg: int, symbol: str):
        self.items.append(LoadAddress(reg, symbol))

    def set_entry(self, label: str):
        self._entry_label = label

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def alloc_data(self, name: str, nwords: int, init=None) -> int:
        """Reserve ``nwords`` 8-byte words of data, optionally initialised."""
        if name in self.data_symbols:
            raise BuildError(f"data symbol redefined: {name}")
        addr = self._data_cursor
        self.data_symbols[name] = addr
        self._data_cursor += nwords * 8
        if init is not None:
            values = list(init)
            if len(values) > nwords:
                raise BuildError(f"initialiser longer than allocation: {name}")
            for offset, value in enumerate(values):
                self.data_words[addr + offset * 8] = value
        return addr

    def data_address(self, name: str) -> int:
        return self.data_symbols[name]

    def adopt_data(self, data_words: Dict[int, int], data_size: int):
        """Adopt an existing image's data segment (used by rewriting tools)."""
        self.data_words.update(data_words)
        self._data_cursor = max(self._data_cursor, self.data_base + data_size)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def build(self) -> ProgramImage:
        """Lay out and resolve the program into an executable image."""
        instructions: List[Optional[Instruction]] = []
        label_index: Dict[str, int] = {}
        pending_loads: List[Tuple[int, LoadAddress]] = []

        for item in self.items:
            if isinstance(item, Instruction):
                instructions.append(item)
            elif isinstance(item, Label):
                if item.name in label_index:
                    raise BuildError(f"label redefined: {item.name}")
                label_index[item.name] = len(instructions)
            elif isinstance(item, LoadAddress):
                # An ldah/lda pair, filled in once addresses are known.
                pending_loads.append((len(instructions), item))
                instructions += (None, None)
            else:
                raise BuildError(f"unknown builder item: {item!r}")

        count = len(instructions)
        addresses = list(range(self.text_base,
                               self.text_base + count * INSTRUCTION_BYTES,
                               INSTRUCTION_BYTES))

        def symbol_addr(name):
            if name in label_index:
                return addresses[label_index[name]]
            if name in self.data_symbols:
                return self.data_symbols[name]
            raise BuildError(f"undefined symbol: {name}")

        # Expand load-address pairs; remember the text ones so rewriting
        # tools can re-resolve them after moving code.
        load_addresses: Dict[int, str] = {}
        for index, load in pending_loads:
            high, low = split_address(symbol_addr(load.symbol))
            instructions[index] = Instruction(Opcode.LDAH, ra=load.reg,
                                              rb=31, imm=high)
            instructions[index + 1] = Instruction(Opcode.LDA, ra=load.reg,
                                                  rb=load.reg, imm=low)
            if load.symbol in label_index:
                load_addresses[index] = load.symbol

        # Resolve branch targets.
        target_index: List[Optional[int]] = [None] * count
        for index, instr in enumerate(instructions):
            target = instr.target
            if target is None:
                if instr.imm is not None and \
                        instr.opcode in _DISPLACEMENT_BRANCHES:
                    dest = index + 1 + instr.imm
                    if not 0 <= dest <= count:
                        raise BuildError(
                            f"branch target out of image: index {dest}"
                        )
                    target_index[index] = dest
                continue
            if instr.opcode.format is not Format.BRANCH:
                raise BuildError(
                    f"symbolic target on non-branch instruction: {instr}"
                )
            dest = label_index.get(target)
            if dest is None:
                raise BuildError(f"undefined branch target: {target}")
            instructions[index] = Instruction(instr.opcode, instr.ra,
                                              instr.rb, instr.rc,
                                              dest - (index + 1))
            target_index[index] = dest

        entry_label = self._entry_label
        if entry_label is None:
            for candidate in ("main", "_start"):
                if candidate in label_index:
                    entry_label = candidate
                    break
        entry_index = label_index.get(entry_label, 0) if entry_label else 0

        return ProgramImage(
            instructions=instructions,
            addresses=addresses,
            sizes=[INSTRUCTION_BYTES] * count,
            target_index=target_index,
            symbols=dict(label_index),
            entry_index=entry_index,
            text_base=self.text_base,
            data_base=self.data_base,
            data_words=dict(self.data_words),
            data_size=self._data_cursor - self.data_base,
            load_addresses=load_addresses,
        )


def build_from_assembly(source, text_base=DEFAULT_TEXT_BASE,
                        data_base=DEFAULT_DATA_BASE) -> ProgramImage:
    """Assemble and lay out a source string in one step."""
    builder = ProgramBuilder(text_base=text_base, data_base=data_base)
    builder.emit_assembly(source)
    return builder.build()
