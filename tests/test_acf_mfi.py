"""Tests for memory fault isolation (all three implementations)."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.acf.composition import compose_dise_dise
from repro.acf.mfi import (
    DR_CODE_SEG,
    DR_DATA_SEG,
    ERROR_LABEL,
    MFI_FAULT_CODE,
    MfiError,
    SCAVENGED_REGS,
    attach_mfi,
    ensure_error_stub,
    mfi_production_set,
    mfi_production_source,
    rewrite_mfi,
    segment_ids,
)
from repro.isa.build import Imm, bis, fault, halt, ldq, out, sll, stq, jsr, ret
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import parse_reg
from repro.program.builder import ProgramBuilder
from repro.program.rewriter import image_to_items
from repro.sim.functional import run_program
from repro.workloads.generator import generate_by_name

from conftest import A0, A1, RA, T0, ZERO, build_loop_program


def wild_store_image(kind="store"):
    """A program that makes one out-of-segment access."""
    b = ProgramBuilder()
    b.alloc_data("buf", 2, init=[1, 2])
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(ldq(A0, 0, A1))            # legal load
    b.emit(bis(ZERO, Imm(3), T0))
    b.emit(sll(T0, Imm(26), T0))      # segment 3
    if kind == "store":
        b.emit(stq(A0, 0, T0))
    elif kind == "load":
        b.emit(ldq(A0, 0, T0))
    else:
        b.emit(ret(T0))               # wild indirect jump
    b.emit(out(A0))
    b.emit(halt())
    return b.build()


def _rebuilt_with_stub(image):
    """Reference for :func:`ensure_error_stub` on 4-byte images: rebuild
    the image through the builder with the stub label and fault appended."""
    builder = ProgramBuilder(text_base=image.text_base,
                             data_base=image.data_base)
    builder.adopt_data(image.data_words, image.data_size)
    builder.emit_items(image_to_items(image))
    builder.label(ERROR_LABEL)
    builder.emit(fault(MFI_FAULT_CODE))
    entry_names = [n for n, i in image.symbols.items()
                   if i == image.entry_index]
    if entry_names:
        builder.set_entry(entry_names[0])
    return builder.build()


class TestDiseMfi:
    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    @pytest.mark.parametrize("kind", ["store", "load", "jump"])
    def test_wild_access_caught(self, variant, kind):
        installation = attach_mfi(wild_store_image(kind), variant)
        result = installation.run()
        assert result.fault_code == MFI_FAULT_CODE

    @pytest.mark.parametrize("variant", ["dise3", "dise4"])
    def test_clean_program_unperturbed(self, variant):
        image = build_loop_program()
        plain = run_program(image)
        result = attach_mfi(image, variant).run()
        assert result.outputs == plain.outputs
        assert result.fault_code is None

    def test_wild_store_blocked_before_memory_write(self):
        installation = attach_mfi(wild_store_image("store"), "dise3")
        result = installation.run()
        assert result.final_memory.read(3 << 26) == 0

    def test_dise3_shorter_than_dise4(self):
        image = build_loop_program()
        r3 = attach_mfi(image, "dise3").run()
        r4 = attach_mfi(image, "dise4").run()
        assert r3.instructions < r4.instructions
        assert r3.expansions == r4.expansions

    def test_expansion_rate_matches_memory_ops(self):
        image = build_loop_program()
        result = attach_mfi(image, "dise3").run()
        memops = sum(
            1 for o in result.ops
            if o.fetch_addr is not None and o.expansion is not None
        )
        assert result.expansions == memops

    def test_error_stub_appended_once(self):
        image = build_loop_program()
        once = ensure_error_stub(image)
        twice = ensure_error_stub(once)
        assert once is twice
        assert ERROR_LABEL in once.symbols

    @pytest.mark.parametrize("symbols", [
        {"main": 0},                                       # anonymous targets
        {"main": 0, "start": 0, "loop": 4, "leaf": 13},    # an alias
        {"leaf": 13, "main": 0, "loop": 4, "done": 15},    # unordered, end
    ])
    def test_error_stub_matches_rebuild(self, symbols):
        image = build_loop_program(with_function=True)
        assert image.symbols == {"main": 0, "loop": 4, "leaf": 13}
        image = replace(image, symbols=symbols)
        assert canonical_image(ensure_error_stub(image)) == \
            canonical_image(_rebuilt_with_stub(image))

    def test_error_stub_matches_rebuild_with_text_addresses(self):
        b = ProgramBuilder()
        b.label("main")
        b.load_address(A1, "second")
        b.load_address(A0, "first")
        b.emit(jsr(RA, A0))
        b.emit(jsr(RA, A1))
        b.emit(halt())
        b.label("first")
        b.emit(ret(RA))
        b.label("second")
        b.emit(ret(RA))
        image = b.build()
        image = replace(image, load_addresses=dict(
            reversed(list(image.load_addresses.items()))))
        assert canonical_image(ensure_error_stub(image)) == \
            canonical_image(_rebuilt_with_stub(image))

    def test_error_stub_keeps_non_uniform_layout(self):
        image = build_loop_program()
        sizes = list(image.sizes)
        sizes[2] = 2                      # one 2-byte instruction
        addresses = [image.text_base + sum(sizes[:index])
                     for index in range(len(sizes))]
        image = replace(image, addresses=addresses, sizes=sizes)
        stubbed = ensure_error_stub(image)
        count = image.instruction_count
        assert stubbed.sizes[:count] == sizes
        assert stubbed.addresses[:count] == addresses
        assert stubbed.addresses[count] == addresses[-1] + sizes[-1]
        assert stubbed.symbol_address(ERROR_LABEL) == stubbed.addresses[count]
        stub = stubbed.instructions[count]
        assert stub.opcode is Opcode.FAULT and stub.imm == MFI_FAULT_CODE
        assert image.instruction_count == count     # base left untouched

    def test_production_set_requires_stub(self):
        with pytest.raises(MfiError):
            mfi_production_set(build_loop_program())

    def test_segment_ids(self):
        image = build_loop_program()
        data_seg, code_seg = segment_ids(image)
        assert data_seg == image.data_base >> 26
        assert code_seg == image.text_base >> 26

    def test_unknown_variant(self):
        with pytest.raises(MfiError):
            mfi_production_source("dise9")

    def test_init_seeds_dedicated_registers(self):
        installation = attach_mfi(build_loop_program(), "dise3")
        machine = installation.make_machine()
        data_seg, code_seg = segment_ids(installation.image)
        assert machine.regs[DR_DATA_SEG] == data_seg
        assert machine.regs[DR_CODE_SEG] == code_seg


class TestRewritingMfi:
    def test_wild_access_caught(self):
        result = rewrite_mfi(wild_store_image("store")).run()
        assert result.fault_code == MFI_FAULT_CODE

    def test_wild_jump_caught(self):
        result = rewrite_mfi(wild_store_image("jump")).run()
        assert result.fault_code == MFI_FAULT_CODE

    def test_clean_program_equivalent(self):
        image = build_loop_program()
        plain = run_program(image)
        result = rewrite_mfi(image).run()
        assert result.outputs == plain.outputs
        assert result.fault_code is None

    def test_static_growth(self):
        image = build_loop_program()
        rewritten = rewrite_mfi(image).image
        unsafe = image.count_matching(
            lambda i: i.opclass in (OpClass.LOAD, OpClass.STORE,
                                    OpClass.INDIRECT_JUMP)
        )
        # 4 inserted per unsafe op + 2-instr prologue + >= 1 stub.
        assert rewritten.instruction_count >= (
            image.instruction_count + 4 * unsafe + 3
        )

    def test_scavenged_register_conflict_detected(self):
        b = ProgramBuilder()
        b.label("main")
        b.emit(bis(ZERO, Imm(1), SCAVENGED_REGS[0]))
        b.emit(halt())
        with pytest.raises(MfiError):
            rewrite_mfi(b.build())

    def test_rewritten_executes_more_instructions_than_dise3(self):
        image = build_loop_program(iterations=20)
        dise3 = attach_mfi(image, "dise3").run()
        rewritten = rewrite_mfi(image).run()
        # Same checks, plus the defensive copies (DISE4-style sequences).
        assert rewritten.instructions > dise3.instructions

    def test_transparency_dise_image_unmodified(self):
        image = build_loop_program()
        installation = attach_mfi(image, "dise3")
        # Only the appended stub distinguishes the DISE image.
        assert installation.image.instructions[:image.instruction_count] \
            == image.instructions


# ----------------------------------------------------------------------
# Pinned image digests
# ----------------------------------------------------------------------
#: Scale of the images the pinned digests cover.
DIGEST_SCALE = 0.05
#: Order of the digests in each ``PINNED_IMAGE_DIGESTS`` row.
DIGEST_IMAGES = ("dise_stub", "rewrite", "dise+dise")
#: Profiles the tier-1 suite checks; CI checks every pinned profile.
TIER1_DIGEST_PROFILES = ("bzip2", "mcf")


def canonical_image(image):
    """Every :class:`ProgramImage` field as JSON-ready lists — never
    ``repr``, whose spelling may change between Python versions.  Symbols,
    data words and load addresses keep their insertion order."""
    return {
        "instructions": [[i.opcode.name, i.ra, i.rb, i.rc, i.imm, i.target]
                         for i in image.instructions],
        "addresses": image.addresses,
        "sizes": image.sizes,
        "target_index": image.target_index,
        "symbols": list(image.symbols.items()),
        "entry_index": image.entry_index,
        "text_base": image.text_base,
        "data_base": image.data_base,
        "data_words": list(image.data_words.items()),
        "data_size": image.data_size,
        "load_addresses": list(image.load_addresses.items()),
    }


def image_digests(profile):
    """SHA-256 of the canonical MFI images of ``profile``, in
    ``DIGEST_IMAGES`` order: the DISE image with its error stub, the
    binary-rewritten image, and the stubbed dise+dise compressed image."""
    image = generate_by_name(profile, scale=DIGEST_SCALE)
    images = (ensure_error_stub(image), rewrite_mfi(image).image,
              compose_dise_dise(image)[1].image)
    return tuple(
        hashlib.sha256(json.dumps(canonical_image(out), sort_keys=True,
                                  separators=(",", ":")).encode()).hexdigest()
        for out in images
    )


PINNED_IMAGE_DIGESTS = {
    "bzip2": (
        "0e776dd1d3da9e457d2c7835a5e18406ab5ee2726864873bfe96613dbc14005a",
        "4615d1c92237bbb0320c9f529368d225da40ac2f342f7dc2ddf2869544ebd782",
        "fcc8f716fe0c72d0866a88594b5b4f3d9dc55d002ad8da20c6aee13a923964c2",
    ),
    "crafty": (
        "5c80dff70342bd8eff8cafd0c8283ca3e919eb0d7bd7c2b14ed282a3370752f4",
        "d4bb858729eca1e348eaf18f5551516fd79720f887e726d3d91ca6b4ab5143ae",
        "8eeb84bab5ab09bbc2052fc39cd79ad755743244223aa6c1797c92c84864744b",
    ),
    "eon": (
        "09922a6add39a8b45d318f2b3f7a9e87eef4cd81ae82354e70c3edd97d7ff54a",
        "8cc631783b584328c35c23428dfe2ce3e247724b90b5385c2180744a18a8bafc",
        "b914f522946b8176649c7cf6faebd6f2bd4de17867040627325075783dfeb1c1",
    ),
    "gap": (
        "d0680a94d32ae944451da4223491fa7f7b7c82638138dbd99a74d0e6128289af",
        "8ecf8ea2bebd1be5b166f730c059cb4ad601a5d1f17ca7ecd3b9add6b8b10aeb",
        "f1a806a7f5773bbad29a81542ad9881eebb04e27b69c03b79a294dd1fdeb1360",
    ),
    "gcc": (
        "47a7f410ab245ad31ca7a36b17777c2232921b7e4ff75dac799ef3ea7f01d73d",
        "633b0440bd6335e575eb0d7d60656f538810ad5ce1dca1a721b663e9af2a67b7",
        "a11a1f87727a5c616664fa267be18d3b92fab5c8c14cc1e5ddd4a967782976de",
    ),
    "gzip": (
        "15f379b7044a461926172e3cf455bb225c933bcd9e0f4bc881ec79260caec3f0",
        "6f95d371d85adaec5350cc0e20aa03becc4f3c0de38645c3b5a846783cebc204",
        "4696a5dd9040a58740b76c5334d089a06cd8098ad1a97b15be4c306dc91fa20b",
    ),
    "mcf": (
        "a76cffe94e520173a7e82bfdaf9fe2813e3ede9237df0c1ec35a74d041228088",
        "e0b4d82c46ec52da1f7866ff00993a7bbda6af5f75cf0f3f09ea904da9844760",
        "d657affdf84cd2a47a1312801eb9e18e170fbad3e12c661ad788a8246b4ef52d",
    ),
    "parser": (
        "202a85f28e3aa4a08a5bd62fa35b510e8e9fd737ccf682d00148f44680e32342",
        "353c5829aad3400fe7ed2567c65542ca5dd12832a489923a40aa744802b6f1de",
        "ff84c47b8fb1b9efd88e165dec6d07577b73b5a5515493364571966b9525c2bf",
    ),
    "perlbmk": (
        "c5691bfff78ada41cfe2d56a79dda6052f7f2b813461a55c0ab16bf6fb5d328c",
        "67e69d19a83e85d3127b444f558d24ca32a6e53bed17a161d56271bb6fafa7bc",
        "e237d7f83c3422fee202b26cc27a69c4de0122ded52e8ee1e341e16ab612d063",
    ),
    "twolf": (
        "1aef951f4d42b857cea43e57120045e872eba469ae761ecf70fc4916302e18fe",
        "223b1a4b54249dd2ba1d0b852580648f5c91bdd6ab284a71e76496cbbe5d1f6f",
        "bf80fb5453b4576647d2ae072c8f145390f6a59b8461be8f497a5753e5529d9e",
    ),
    "vortex": (
        "9ac3bf286dd982f79a83b5be8c5c7e3f6c58c310b9e53b46731a2ebbabce797b",
        "ee3f8c9e6e7c8e203fcf8f4c6bf295e3a84906aa38720afdb08a1dfc5274da80",
        "9b6c617dfff133a2c70591d4491d1ac3ba5fd130d7c2cb42dbb949d53929e595",
    ),
    "vpr": (
        "db4b68651702ab82eb5875514dfc5402e709d24eb2e6e80b2b0f239c21caa7c6",
        "d0cbe9561c903dc34b18112a3f49c3e9b0db42734d6e8faecf64bad069c458e7",
        "b862e6e58901596fc86ea0c40d52bd8da1e88f7be2e058b878bc365f84ac520e",
    ),
}


@pytest.mark.parametrize("profile", TIER1_DIGEST_PROFILES)
def test_image_digests_pinned(profile):
    got = image_digests(profile)
    mismatched = [name for name, digest, pinned in
                  zip(DIGEST_IMAGES, got, PINNED_IMAGE_DIGESTS[profile])
                  if digest != pinned]
    assert not mismatched, f"{profile}: MFI image changed for {mismatched}"
