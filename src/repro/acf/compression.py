"""Dynamic code (de)compression — Section 3.2 / Figure 4 / Figure 7.

The static half analyses the program, builds a decompression dictionary, and
replaces instances of dictionary sequences with DISE codewords; the dynamic
half is a tagged production set that re-expands the codewords at fetch.

The algorithm follows the paper:

* Candidate dictionary entries are instruction sequences of any size that do
  not straddle basic blocks.
* **Parameterization** merges candidate sequences that differ only in
  register names or small immediates: a codeword carries three 5-bit
  parameters plus an 11-bit tag, so a template may reference up to three
  parameterized operands (one when the sequence ends in a PC-relative
  branch, whose offset consumes the concatenated P2:P3 parameter).
* **Branch compression**: making the PC-relative offset a parameter lets two
  static branches share a dictionary entry, and each instance's offset is
  fixed up after compression moves the code (the paper's answer to the
  offset-instability problem of unparameterized compressors).
* **Greedy selection** iteratively picks the candidate with the greatest
  immediate compression, weighing the dictionary cost of the entry against
  the static instructions removed from the text.

The same machinery models the **dedicated decoder-based decompressor**
baseline via :data:`DEDICATED_OPTIONS` (2-byte codewords, single-instruction
compression, no parameterization, no branch compression) and the feature
ablation chain of Figure 7 (top).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.errors import AcfConfigError, AcfError
from repro.acf.base import AcfInstallation
from repro.core.directives import Lit, TrigField
from repro.core.pattern import PatternSpec
from repro.core.production import ProductionSet
from repro.core.replacement import ReplacementInstr, ReplacementSpec
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import OPCODE_BY_CODE, Format, OpClass, Opcode
from repro.isa.registers import ZERO_REG
from repro.program.blocks import find_basic_blocks
from repro.program.builder import split_address
from repro.program.image import ProgramImage


class CompressionError(AcfError):
    """Raised when an image cannot be compressed as requested."""


@dataclass(frozen=True)
class CompressionOptions:
    """Feature knobs separating the Figure 7 experiments."""

    codeword_bytes: int = INSTRUCTION_BYTES
    min_seq_len: int = 2
    max_seq_len: int = 8
    parameterize: bool = True
    compress_branches: bool = True
    dict_entry_bytes: int = 8
    max_dict_entries: int = 2048
    reserved_opcode: Opcode = Opcode.RES0

    def with_changes(self, **changes) -> "CompressionOptions":
        return dc_replace(self, **changes)


#: The dedicated decoder-based decompressor baseline [Lefurgy et al.]:
#: 2-byte codewords, single-instruction compression, 4-byte unparameterized
#: dictionary entries, no branch compression.
DEDICATED_OPTIONS = CompressionOptions(
    codeword_bytes=2, min_seq_len=1, parameterize=False,
    compress_branches=False, dict_entry_bytes=4,
)

#: Full-featured DISE compression.
DISE_OPTIONS = CompressionOptions()

#: The Figure 7 (top) ablation chain, in presentation order.
FIGURE7_VARIANTS = (
    ("dedicated", DEDICATED_OPTIONS),
    ("-1insn", DEDICATED_OPTIONS.with_changes(min_seq_len=2)),
    ("-2byteCW", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES)),
    ("+8byteDE", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES, dict_entry_bytes=8)),
    ("+3param", DEDICATED_OPTIONS.with_changes(
        min_seq_len=2, codeword_bytes=INSTRUCTION_BYTES, dict_entry_bytes=8,
        parameterize=True)),
    ("DISE", DISE_OPTIONS),
)

_P_SLOTS = ("p1", "p2", "p3")
_PARAM_IMM_MIN, _PARAM_IMM_MAX = -16, 15
_P23_MIN, _P23_MAX = -512, 511
_NO_PARAMS = (ZERO_REG, ZERO_REG, ZERO_REG)


# ----------------------------------------------------------------------
# Candidate eligibility and template keys
# ----------------------------------------------------------------------
def _may_end_sequence(instr: Instruction,
                      options: CompressionOptions) -> bool:
    """Whether ``instr`` may end a candidate sequence; a non-branch that
    may end one may also sit anywhere inside one."""
    op = instr.opcode
    if op.opclass in (OpClass.RESERVED, OpClass.SYSTEM, OpClass.NOP,
                      OpClass.DISE_BRANCH, OpClass.INDIRECT_JUMP):
        return False
    if op is Opcode.BSR:
        return False
    if op.is_branch:
        if not options.compress_branches:
            return False
        if op is Opcode.BR and instr.ra != ZERO_REG:
            return False  # linking br writes a PC-derived value
    return True


@dataclass
class _Occurrence:
    start: int
    length: int
    #: values for p1/p2/p3 (branch offsets patched after layout).
    params: Tuple[int, int, int]
    #: original index of the trailing branch, if any.
    branch_index: Optional[int]


#: Parameter-assignment strategies tried for each candidate sequence.  The
#: paper builds an exhaustive candidate set and merges via parameterization;
#: trying both operand orders approximates that — a sequence whose sharing
#: hinges on an immediate (Figure 4's ``lda r, 8(r)`` vs ``lda r, -8(r)``)
#: unifies under ``imms_first`` even when registers exhaust the slots.
STRATEGIES = ("regs_first", "imms_first")


#: How many of the leading (ra, rb, rc) fields name operand registers.
_OPERAND_FIELDS = {Format.BRANCH: 1, Format.MEM: 2, Format.OPERATE: 3}


def _features(instructions: List[Instruction],
              options: CompressionOptions) -> List[tuple]:
    """Per-instruction facts the key builder reads, computed once per image:
    ``(code, is_branch, ok_mid, ok_last, regs, imm_param, ra, rb, rc, imm)``.

    ``ok_mid``/``ok_last`` are eligibility inside and at the end of a
    sequence, ``regs`` the non-zero operand registers in field order, and
    ``imm_param`` the immediate when it fits a 5-bit parameter.
    """
    features = []
    for instr in instructions:
        op = instr.opcode
        is_branch = op.is_branch
        imm = instr.imm
        imm_param = imm if (not is_branch and imm is not None and
                            _PARAM_IMM_MIN <= imm <= _PARAM_IMM_MAX) else None
        fields = (instr.ra, instr.rb, instr.rc)
        ok_last = _may_end_sequence(instr, options)
        features.append((
            op.code, is_branch, ok_last and not is_branch, ok_last,
            tuple(r for r in fields[:_OPERAND_FIELDS.get(op.format, 0)]
                  if r is not None and r != ZERO_REG),
            imm_param, instr.ra, instr.rb, instr.rc, imm,
        ))
    return features


def _template_keys(features: List[tuple], parameterize: bool,
                   strategies: Tuple[str, ...]
                   ) -> Optional[Dict[tuple, Tuple[int, int, int]]]:
    """The distinct keys of one sequence under ``strategies``, each mapped
    to its parameter values (first strategy wins), or None when the
    sequence is ineligible.

    A key holds one ``(opcode code, ra, rb, rc, imm)`` slot per
    instruction; each field encodes its directive bijectively —
    ``Lit(v)`` as ``v``, ``TrigField(f)`` as ``f``, no directive as None —
    so two keys are equal exactly when their materialized templates are.
    """
    last = len(features) - 1
    for offset, feature in enumerate(features):
        if not feature[3 if offset == last else 2]:
            return None
    branch = features[last][1]

    if not parameterize:
        if branch:
            return None  # unparameterized compression cannot move branches
        key = tuple((code, ra, rb, rc, imm)
                    for code, _, _, _, _, _, ra, rb, rc, imm in features)
        return {key: _NO_PARAMS}

    # Operands in order of appearance.
    seen_regs: List[int] = []
    seen_imms: List[int] = []
    for feature in features:
        for reg in feature[4]:
            if reg not in seen_regs:
                seen_regs.append(reg)
        imm = feature[5]
        if imm is not None and imm not in seen_imms:
            seen_imms.append(imm)
    regs = [(True, r) for r in seen_regs]
    imms = [(False, v) for v in seen_imms]

    # Parameter slots: a trailing branch consumes P2:P3 for its offset.
    num_slots = 1 if branch else 3
    made: Dict[tuple, Tuple[int, int, int]] = {}
    for strategy in strategies:
        if strategy == "regs_first":
            operands = regs + imms
        elif strategy == "imms_first":
            operands = imms + regs
        else:
            raise AcfConfigError(f"unknown strategy {strategy!r}")
        reg_slot: Dict[int, str] = {}
        imm_slot: Dict[int, str] = {}
        params = list(_NO_PARAMS)
        for index, (is_reg, value) in enumerate(operands[:num_slots]):
            if is_reg:
                reg_slot[value] = _P_SLOTS[index]
                params[index] = value
            else:
                imm_slot[value] = _P_SLOTS[index]
                params[index] = value & 0x1F
        reg = reg_slot.get
        key = tuple(
            (code, reg(ra, ra), None, None, "p23") if is_branch else
            (code, reg(ra, ra), reg(rb, rb), reg(rc, rc),
             imm_slot.get(imm, imm))
            for code, is_branch, _, _, _, _, ra, rb, rc, imm in features
        )
        made.setdefault(key, tuple(params))
    return made


def _directive(field_value):
    if field_value is None:
        return None
    if isinstance(field_value, str):
        return TrigField(field_value)
    return Lit(field_value)


def materialize_template(key: tuple) -> Tuple[ReplacementInstr, ...]:
    """The ``ReplacementInstr`` sequence a template key encodes."""
    return tuple(
        ReplacementInstr(opcode=OPCODE_BY_CODE[code], ra=_directive(ra),
                         rb=_directive(rb), rc=_directive(rc),
                         imm=_directive(imm))
        for code, ra, rb, rc, imm in key
    )


def make_template(instrs: List[Instruction],
                  options: CompressionOptions,
                  strategy: str = "regs_first",
                  ) -> Optional[Tuple[Tuple[ReplacementInstr, ...],
                                      Tuple[int, int, int]]]:
    """Canonicalise a concrete sequence into (template, parameter values).

    Returns None when the sequence is ineligible.  Two sequences share a
    dictionary entry iff their templates are equal.
    """
    made = _template_keys(_features(instrs, options), options.parameterize,
                          (strategy,))
    if made is None:
        return None
    ((key, params),) = made.items()
    return materialize_template(key), params


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------
def enumerate_candidates(image: ProgramImage, options: CompressionOptions
                         ) -> Dict[tuple, List[_Occurrence]]:
    """All candidate (template key -> occurrences) groups in the image.

    Keys are plain tuples of ints and strings (see :func:`_template_keys`),
    cheap to hash; :func:`materialize_template` turns one into the
    ``ReplacementInstr`` tuple :func:`make_template` would return.
    """
    candidates: Dict[tuple, List[_Occurrence]] = {}
    features = _features(image.instructions, options)
    # Load-address pairs are relocation sites: they must survive verbatim so
    # they can be re-resolved after compression moves the code.
    blocked = [False] * image.instruction_count
    for index in image.load_addresses:
        blocked[index] = True
        if index + 1 < len(blocked):
            blocked[index + 1] = True
    strategies = STRATEGIES if options.parameterize else ("regs_first",)
    for block in find_basic_blocks(image):
        for start in range(block.start, block.end):
            max_len = min(options.max_seq_len, block.end - start)
            for length in range(options.min_seq_len, max_len + 1):
                stop = start + length
                if blocked[stop - 1] or blocked[start]:
                    break
                made = _template_keys(features[start:stop],
                                      options.parameterize, strategies)
                if made is None:
                    break  # an ineligible instr poisons longer sequences too
                branch_index = stop - 1 if features[stop - 1][1] else None
                for key, params in made.items():
                    candidates.setdefault(key, []).append(
                        _Occurrence(start=start, length=length,
                                    params=params, branch_index=branch_index)
                    )
    return candidates


# ----------------------------------------------------------------------
# Greedy dictionary selection
# ----------------------------------------------------------------------
def _usable_occurrences(occurrences: List[_Occurrence],
                        claimed: List[bool]) -> List[_Occurrence]:
    """Non-overlapping, unclaimed occurrences (greedy left-to-right)."""
    usable = []
    next_free = -1
    for occ in occurrences:
        if occ.start < next_free:
            continue
        if any(claimed[occ.start:occ.start + occ.length]):
            continue
        usable.append(occ)
        next_free = occ.start + occ.length
    return usable


def _savings(occurrences: List[_Occurrence], length: int,
             options: CompressionOptions) -> int:
    per_instance = length * INSTRUCTION_BYTES - options.codeword_bytes
    dict_cost = length * options.dict_entry_bytes
    return len(occurrences) * per_instance - dict_cost


@dataclass
class DictionaryEntry:
    tag: int
    template: Tuple[ReplacementInstr, ...]
    occurrences: List[_Occurrence]

    @property
    def length(self) -> int:
        return len(self.template)


def select_dictionary(image: ProgramImage, options: CompressionOptions
                      ) -> List[DictionaryEntry]:
    """Greedy selection: repeatedly take the template with the greatest
    immediate compression (lazy-heap formulation of the paper's loop)."""
    candidates = enumerate_candidates(image, options)
    claimed = [False] * image.instruction_count

    # Equal-gain ties break on enumeration order, which is a deterministic
    # function of the image — never on id(), whose values vary from process
    # to process and would give parallel workers different dictionaries.
    heap = []
    for rank, (key, occurrences) in enumerate(candidates.items()):
        occurrences.sort(key=lambda o: o.start)
        usable = _usable_occurrences(occurrences, claimed)
        gain = _savings(usable, len(key), options)
        if gain > 0:
            heapq.heappush(heap, (-gain, rank, key))

    entries: List[DictionaryEntry] = []
    while heap and len(entries) < options.max_dict_entries:
        neg_gain, rank, key = heapq.heappop(heap)
        usable = _usable_occurrences(candidates[key], claimed)
        gain = _savings(usable, len(key), options)
        if gain <= 0:
            continue
        if -neg_gain != gain:
            heapq.heappush(heap, (-gain, rank, key))  # stale; re-rank
            continue
        for occ in usable:
            for index in range(occ.start, occ.start + occ.length):
                claimed[index] = True
        entries.append(
            DictionaryEntry(tag=len(entries),
                            template=materialize_template(key),
                            occurrences=usable)
        )
    return entries


# ----------------------------------------------------------------------
# Image transformation
# ----------------------------------------------------------------------
@dataclass
class CompressionResult:
    """A compressed program plus its decompression productions and stats."""

    image: ProgramImage
    production_set: Optional[ProductionSet]
    options: CompressionOptions
    original_text_bytes: int
    compressed_text_bytes: int
    dictionary_entries: int
    dictionary_bytes: int
    instances: int
    instructions_removed: int
    dropped_branch_instances: int = 0

    @property
    def text_ratio(self) -> float:
        """Compressed text size / original text size."""
        return self.compressed_text_bytes / self.original_text_bytes

    @property
    def total_ratio(self) -> float:
        """(Compressed text + dictionary) / original text size."""
        return ((self.compressed_text_bytes + self.dictionary_bytes)
                / self.original_text_bytes)

    def installation(self, init_machine=None) -> AcfInstallation:
        production_sets = (
            [self.production_set] if self.production_set else []
        )
        return AcfInstallation(
            image=self.image, production_sets=production_sets,
            init_machine=init_machine, name="decompression",
        )


def _patch_branch_params(params, offset_words):
    """Fill P2:P3 with a branch offset; returns patched params or None."""
    if not _P23_MIN <= offset_words <= _P23_MAX:
        return None
    raw = offset_words & 0x3FF
    return (params[0], (raw >> 5) & 0x1F, raw & 0x1F)


def compress_image(image: ProgramImage,
                   options: CompressionOptions = DISE_OPTIONS
                   ) -> CompressionResult:
    """Compress an image; returns the new image, productions, and stats."""
    if not image.uniform_size():
        raise CompressionError("image is already compressed")
    entries = select_dictionary(image, options)

    # Iterate layout until every compressed branch offset fits its P2:P3
    # parameter (compression moves code, so offsets change — Section 3.2).
    dropped = 0
    for _ in range(24):
        built, num_dropped = _build_compressed(image, entries, options)
        dropped += num_dropped
        if built is not None:
            new_image, instances, removed = built
            break
    else:
        raise CompressionError("branch-offset fixup did not converge")

    production_set = _decompression_productions(entries, options)
    dictionary_instrs = sum(entry.length for entry in entries)
    return CompressionResult(
        image=new_image,
        production_set=production_set,
        options=options,
        original_text_bytes=image.text_size,
        compressed_text_bytes=new_image.text_size,
        dictionary_entries=len(entries),
        dictionary_bytes=dictionary_instrs * options.dict_entry_bytes,
        instances=instances,
        instructions_removed=removed,
        dropped_branch_instances=dropped,
    )


def _build_compressed(image, entries, options):
    """One layout attempt.

    Returns ``((image, instance_count, removed_count), 0)`` on success, or
    ``(None, dropped)`` after removing every occurrence whose branch offset
    cannot be represented — the caller then relays out and retries.
    """
    instructions = image.instructions
    n = len(instructions)

    occ_at: Dict[int, Tuple[DictionaryEntry, _Occurrence]] = {}
    for entry in entries:
        for occ in entry.occurrences:
            occ_at[occ.start] = (entry, occ)

    new_instrs: List[Instruction] = []
    new_sizes: List[int] = []
    index_map: Dict[int, int] = {}
    codeword_starts: List[Tuple[int, DictionaryEntry, _Occurrence]] = []

    index = 0
    while index < n:
        hit = occ_at.get(index)
        if hit is not None:
            entry, occ = hit
            index_map[index] = len(new_instrs)
            codeword_starts.append((len(new_instrs), entry, occ))
            placeholder = Instruction(
                options.reserved_opcode,
                ra=occ.params[0], rb=occ.params[1], rc=occ.params[2],
                imm=entry.tag,
            )
            new_instrs.append(placeholder)
            new_sizes.append(options.codeword_bytes)
            index += occ.length
        else:
            index_map[index] = len(new_instrs)
            new_instrs.append(instructions[index])
            new_sizes.append(INSTRUCTION_BYTES)
            index += 1
    index_map[n] = len(new_instrs)

    addresses = []
    addr = image.text_base
    for size in new_sizes:
        addresses.append(addr)
        addr += size

    # Remap symbols; a symbol inside a compressed region would be a
    # straddled basic block — candidates cannot contain leaders.
    symbols = {}
    for name, old_index in image.symbols.items():
        if old_index not in index_map:
            raise CompressionError(
                f"symbol {name!r} points inside a compressed sequence"
            )
        symbols[name] = index_map[old_index]

    # Remap direct-branch targets of surviving (uncompressed) instructions.
    target_index: List[Optional[int]] = [None] * len(new_instrs)
    uniform = all(size == INSTRUCTION_BYTES for size in new_sizes)
    for old_index, old_target in enumerate(image.target_index):
        if old_target is None or old_index not in index_map:
            continue
        if index_map.get(old_index) is None:
            continue
        new_index = index_map[old_index]
        if new_instrs[new_index].opcode.is_reserved:
            continue  # branch swallowed into a codeword; handled via params
        if old_target not in index_map:
            raise CompressionError("branch target inside a compressed region")
        new_target = index_map[old_target]
        target_index[new_index] = new_target
        if uniform:
            new_instrs[new_index] = new_instrs[new_index].with_fields(
                imm=new_target - (new_index + 1)
            )

    # Fix up compressed branch offsets now that addresses are final.
    violations: List[Tuple[DictionaryEntry, _Occurrence]] = []
    for new_index, entry, occ in codeword_starts:
        if occ.branch_index is None:
            continue
        old_target = image.target_index[occ.branch_index]
        if old_target is None or old_target not in index_map:
            violations.append((entry, occ))
            continue
        target_addr = addresses[index_map[old_target]]
        cw_addr = addresses[new_index]
        delta = target_addr - (cw_addr + INSTRUCTION_BYTES)
        if delta % INSTRUCTION_BYTES:
            violations.append((entry, occ))
            continue
        patched = _patch_branch_params(occ.params,
                                       delta // INSTRUCTION_BYTES)
        if patched is None:
            violations.append((entry, occ))
            continue
        new_instrs[new_index] = new_instrs[new_index].with_fields(
            ra=patched[0], rb=patched[1], rc=patched[2]
        )
    if violations:
        for entry, occ in violations:
            entry.occurrences.remove(occ)
            if not entry.occurrences and entry in entries:
                entries.remove(entry)
        return None, len(violations)

    entry_index = index_map.get(image.entry_index)
    if entry_index is None:
        raise CompressionError("entry point was compressed away")

    # Re-resolve text-symbol load-address pairs against the new layout.
    new_load_addresses: Dict[int, str] = {}
    for old_index, symbol in image.load_addresses.items():
        new_index = index_map.get(old_index)
        if new_index is None or symbol not in symbols:
            raise CompressionError(
                f"load-address pair for {symbol!r} was compressed away"
            )
        high, low = split_address(addresses[symbols[symbol]])
        new_instrs[new_index] = new_instrs[new_index].with_fields(imm=high)
        new_instrs[new_index + 1] = new_instrs[new_index + 1].with_fields(imm=low)
        new_load_addresses[new_index] = symbol

    new_image = ProgramImage(
        instructions=new_instrs,
        addresses=addresses,
        sizes=new_sizes,
        target_index=target_index,
        symbols=symbols,
        entry_index=entry_index,
        text_base=image.text_base,
        data_base=image.data_base,
        data_words=dict(image.data_words),
        data_size=image.data_size,
        load_addresses=new_load_addresses,
    )
    instances = len(codeword_starts)
    removed = sum(occ.length for _, _, occ in codeword_starts) - instances
    return (new_image, instances, removed), 0


def _decompression_productions(entries, options) -> Optional[ProductionSet]:
    if not entries:
        return None
    pset = ProductionSet("decompression", scope="user")
    for entry in entries:
        pset.add_replacement(
            entry.tag,
            ReplacementSpec(instrs=entry.template, name=f"dict{entry.tag}"),
        )
    pset.add_production(
        PatternSpec(opcode=options.reserved_opcode), tagged=True, name="P-cw"
    )
    return pset


def compress_installation(image: ProgramImage,
                          options: CompressionOptions = DISE_OPTIONS
                          ) -> Tuple[CompressionResult, AcfInstallation]:
    """Compress and wrap as a runnable installation."""
    result = compress_image(image, options)
    return result, result.installation()
