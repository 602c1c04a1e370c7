"""Generic static binary-rewriting support.

The software ACF baselines in the paper (e.g. software fault isolation,
Section 3.1) are built by statically rewriting the program: inserting code
sequences before instructions that match a predicate.  Because insertion
changes instruction positions, all branches must be retargeted — the paper
calls this out as one of the "headaches" of software ACF implementations.

This module performs the rewrite on a finished :class:`ProgramImage` by
converting it back to symbolic form (labels at every former branch target),
splicing in the inserted sequences, and rebuilding.  That faithfully models
what a rewriting tool does, including the text-size growth the evaluation
measures.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Union

from repro.core.directives import AbsTarget, Lit, TrigField
from repro.errors import RewriteError
from repro.isa.assembler import Label
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode
from repro.program.builder import BuilderItem, LoadAddress, ProgramBuilder
from repro.program.image import ProgramImage

#: An insertion callback returns the items to place before the matched
#: instruction, and optionally a replacement for the instruction itself.
InsertionFn = Callable[[Instruction, int], Iterable[Union[Label, Instruction]]]


def label_names(image: ProgramImage) -> Dict[int, str]:
    """Instruction index -> the one label a rebuild places there.

    The first symbol naming an index wins (aliases are dropped); every
    anonymous direct-branch target gets a synthesised ``.bt<N>`` label.
    """
    names: Dict[int, str] = {}
    for name, index in image.symbols.items():
        names.setdefault(index, name)
    for target in image.target_index:
        if target is not None and target not in names:
            names[target] = f".bt{target}"
    return names


def image_to_items(image: ProgramImage) -> List[BuilderItem]:
    """Convert an image back to symbolic builder items.

    Every direct-branch target becomes a label; existing symbols are
    preserved.  The result rebuilds to an equivalent image.
    """
    names = label_names(image)

    items: List[BuilderItem] = []
    load_addresses = image.load_addresses
    skip_next = False
    for index, (instr, target) in enumerate(zip(image.instructions,
                                                image.target_index)):
        if index in names:
            items.append(Label(names[index]))
        if skip_next:
            skip_next = False
            continue
        if index in load_addresses:
            # Reconstruct the pseudo-instruction so the rebuilt image
            # re-resolves the (possibly moved) text symbol.
            items.append(LoadAddress(instr.ra, load_addresses[index]))
            skip_next = True
            continue
        if target is not None and instr.opcode.format is Format.BRANCH:
            items.append(Instruction(instr.opcode, instr.ra, instr.rb,
                                     instr.rc, None, names[target]))
        else:
            items.append(instr)
    # A label may sit one past the last instruction (e.g. loop exit).
    end = image.instruction_count
    if end in names:
        items.append(Label(names[end]))
    return items


def rewrite_image(
    image: ProgramImage,
    predicate: Callable[[Instruction], bool],
    insertion: InsertionFn,
) -> ProgramImage:
    """Insert ``insertion(instr, index)`` items before each matching instruction.

    The insertion callback may also *replace* the matched instruction by
    including an instruction in its returned items and returning ``None``
    markers are not supported — the matched instruction is always re-emitted
    after the inserted items (matching the paper's "precede each unsafe
    instruction with a code sequence" formulation).
    """
    items = image_to_items(image)
    builder = ProgramBuilder(text_base=image.text_base, data_base=image.data_base)
    builder.adopt_data(image.data_words, image.data_size)

    instruction_index = 0
    for item in items:
        if isinstance(item, Instruction):
            if predicate(item):
                builder.emit_items(list(insertion(item, instruction_index)))
            builder.emit(item)
            instruction_index += 1
        else:
            builder.emit_items([item])

    entry_names = [n for n, i in image.symbols.items() if i == image.entry_index]
    if entry_names:
        builder.set_entry(entry_names[0])
    return builder.build()


def _static_instance(rinstr, trigger: Instruction, pc: int,
                     target_names) -> Instruction:
    """Instantiate one replacement instruction for static insertion.

    Mirrors the engine's instantiation logic (``repro.core.engine``) with
    one difference: ``AbsTarget`` directives become *symbolic* branch
    targets so the rebuilt layout retargets them, instead of displacements
    against the trigger's original PC.  ``T.PC`` resolves to the trigger's
    original address — the value the dynamic expansion would see.
    """
    from repro.core.engine import _resolve_reg, _trigger_imm_value

    imm = rinstr.imm
    target = None
    if imm is None:
        value = None
    elif isinstance(imm, Lit):
        value = imm.value
    elif isinstance(imm, TrigField):
        value = _trigger_imm_value(trigger, pc, imm.field)
    elif isinstance(imm, AbsTarget):
        if rinstr.opcode.format is not Format.BRANCH:
            raise RewriteError(
                f"AbsTarget on non-branch {rinstr.opcode.mnemonic} cannot "
                "be relocated statically"
            )
        value = None
        target = target_names[imm.address]
    else:
        raise RewriteError(f"bad immediate directive: {imm!r}")
    return Instruction(
        rinstr.opcode,
        ra=_resolve_reg(rinstr.ra, trigger),
        rb=_resolve_reg(rinstr.rb, trigger),
        rc=_resolve_reg(rinstr.rc, trigger),
        imm=value,
        target=target,
    )


def rewrite_with_productions(image: ProgramImage, production_set,
                             match_pc: bool = True) -> ProgramImage:
    """Apply a DISE production set *statically*: the binary-rewriting
    equivalent of running ``image`` with ``production_set`` installed.

    Every instruction the engine would expand is replaced, in place, by
    its instantiated replacement sequence — trigger copies re-emit the
    original instruction (symbolically, so direct branches retarget after
    layout), ``T.PC`` resolves to the instruction's *original* address,
    and ``AbsTarget`` branch targets become labels.  PC-scoped patterns
    match against original addresses (``match_pc=False`` ignores PC
    scopes, as the engine does for ``pc=None``).

    Raises :class:`~repro.errors.RewriteError` for production sets that
    cannot be expressed statically — above all replacement sequences
    containing DISE-internal branches, which move the DISEPC and are
    architecturally illegal outside an expansion.

    This is the reference transformation the ``dise_vs_static``
    conformance oracle compares dynamic expansion against (paper
    Section 3: DISE as a replacement for static rewriting).
    """
    from repro.core.engine import DiseEngine

    engine = DiseEngine()
    engine.set_production_set(production_set)

    names = label_names(image)

    # Pass 1: decide expansions and register labels for AbsTarget
    # addresses, so forward references resolve during emission.
    expansions = {}
    for index, instr in enumerate(image.instructions):
        if index in image.load_addresses or (
            index and (index - 1) in image.load_addresses
        ):
            continue  # the ldah/lda pair is re-emitted as a pseudo-op
        pc = image.addresses[index]
        production = engine.match(instr, pc if match_pc else None)
        if production is None:
            continue
        seq_id = production.select_seq_id(instr)
        spec = engine.replacement(seq_id)
        for rinstr in spec.instrs:
            if rinstr.is_dise_branch:
                raise RewriteError(
                    f"replacement sequence {spec.name or seq_id!r} uses a "
                    "DISE-internal branch; it has no static equivalent"
                )
            if isinstance(rinstr.imm, AbsTarget):
                addr = rinstr.imm.address
                tindex = image.index_of_addr.get(addr)
                if tindex is None:
                    raise RewriteError(
                        f"AbsTarget {addr:#x} is not an instruction address"
                    )
                names.setdefault(tindex, f".vt{tindex}")
        expansions[index] = spec

    target_names = {
        image.addresses[index] if index < image.instruction_count
        else image.text_base + image.text_size: name
        for index, name in names.items()
    }

    builder = ProgramBuilder(text_base=image.text_base, data_base=image.data_base)
    builder.adopt_data(image.data_words, image.data_size)

    skip_next = False
    for index, instr in enumerate(image.instructions):
        if index in names:
            builder.emit_items([Label(names[index])])
        if skip_next:
            skip_next = False
            continue
        if index in image.load_addresses:
            builder.emit_items([LoadAddress(instr.ra, image.load_addresses[index])])
            skip_next = True
            continue
        target = image.target_index[index]
        if target is not None and instr.format is Format.BRANCH:
            original = instr.with_fields(imm=None, target=names[target])
        else:
            original = instr
        spec = expansions.get(index)
        if spec is None:
            builder.emit(original)
            continue
        pc = image.addresses[index]
        for rinstr in spec.instrs:
            if rinstr.is_trigger_copy:
                builder.emit(original)
            else:
                builder.emit(_static_instance(rinstr, instr, pc, target_names))
    end = image.instruction_count
    if end in names:
        builder.emit_items([Label(names[end])])

    entry_names = [n for n, i in image.symbols.items() if i == image.entry_index]
    if entry_names:
        builder.set_entry(entry_names[0])
    return builder.build()
