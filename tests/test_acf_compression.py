"""Tests for the compression ACF: dictionary building, transformation,
decompression identity, and the Figure 7 feature variants."""

import hashlib
import json

import pytest

from repro.acf import compression
from repro.acf.composition import COMPOSITION_SCHEMES, build_composition
from repro.acf.compression import (
    CompressionError,
    CompressionOptions,
    DEDICATED_OPTIONS,
    DISE_OPTIONS,
    FIGURE7_VARIANTS,
    compress_image,
    enumerate_candidates,
    make_template,
    select_dictionary,
)
from repro.core.directives import Lit, TrigField
from repro.isa.build import (
    Imm,
    addq,
    bis,
    bne,
    bsr,
    halt,
    jsr,
    lda,
    ldq,
    out,
    ret,
    stq,
    subq,
)
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import Opcode
from repro.program.builder import ProgramBuilder
from repro.sim.functional import run_program
from repro.workloads import generate_by_name

from conftest import A0, A1, T0, T1, ZERO, build_loop_program


def redundant_program(copies=6, iterations=3):
    """A program with several instances of the same idiom, with varying
    registers/immediates (the Figure 4 situation)."""
    b = ProgramBuilder()
    b.alloc_data("buf", 64, init=list(range(16)))
    b.label("main")
    b.load_address(A1, "buf")
    b.emit(bis(ZERO, Imm(iterations), T0))
    b.label("loop")
    regs = [1, 2, 3, 4, 5, 6, 7, 16, 17, 18]
    for i in range(copies):
        r = regs[i % len(regs)]
        b.emit(ldq(r, 8 * (i % 4), A1))
        b.emit(addq(r, Imm(1 + (i % 3)), r))
        b.emit(stq(r, 8 * (i % 4), A1))
    b.emit(subq(T0, Imm(1), T0))
    b.emit(bne(T0, "loop"))
    b.emit(ldq(A0, 0, A1))
    b.emit(out(A0))
    b.emit(halt())
    b.set_entry("main")
    return b.build()


class TestTemplates:
    def test_parameterized_template_shares_across_registers(self):
        seq_a = [ldq(1, 8, 2), addq(1, Imm(1), 1)]
        seq_b = [ldq(5, 8, 6), addq(5, Imm(1), 5)]
        ta, pa = make_template(seq_a, DISE_OPTIONS)
        tb, pb = make_template(seq_b, DISE_OPTIONS)
        assert ta == tb, "same shape, different registers: one entry"
        assert pa != pb

    def test_parameterized_template_shares_small_immediates(self):
        # Figure 4: lda r, 8(r) and lda r, -8(r) share an entry.  With three
        # distinct registers the registers-first assignment exhausts the
        # slots, so the immediate-first strategy provides the merge.
        ta, pa = make_template([lda(1, 8, 1), ldq(2, 0, 3)], DISE_OPTIONS,
                               strategy="imms_first")
        tb, pb = make_template([lda(4, -8, 4), ldq(2, 0, 3)], DISE_OPTIONS,
                               strategy="imms_first")
        assert ta == tb
        assert pa != pb

    def test_strategies_disagree_when_operands_exceed_slots(self):
        seq = [lda(1, 8, 1), ldq(2, 0, 3)]
        regs_first, _ = make_template(seq, DISE_OPTIONS, "regs_first")
        imms_first, _ = make_template(seq, DISE_OPTIONS, "imms_first")
        assert regs_first != imms_first

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_template([addq(1, 2, 3), addq(1, 2, 3)], DISE_OPTIONS,
                          strategy="random")

    def test_large_immediates_stay_literal(self):
        ta, _ = make_template([ldq(1, 800, 2), addq(1, 2, 3)], DISE_OPTIONS)
        tb, _ = make_template([ldq(1, 808, 2), addq(1, 2, 3)], DISE_OPTIONS)
        assert ta != tb, "offsets beyond the 5-bit parameter cannot merge"

    def test_unparameterized_requires_exact_match(self):
        opts = DEDICATED_OPTIONS.with_changes(min_seq_len=2)
        ta, _ = make_template([ldq(1, 8, 2), addq(1, Imm(1), 1)], opts)
        tb, _ = make_template([ldq(5, 8, 6), addq(5, Imm(1), 5)], opts)
        assert ta != tb

    def test_branch_only_last_and_only_with_feature(self):
        seq = [subq(1, Imm(1), 1), bne(1, -4)]
        assert make_template(seq, DISE_OPTIONS) is not None
        no_branches = DISE_OPTIONS.with_changes(compress_branches=False)
        assert make_template(seq, no_branches) is None

    def test_branch_template_uses_p23(self):
        template, _ = make_template(
            [subq(1, Imm(1), 1), bne(1, -4)], DISE_OPTIONS
        )
        assert template[-1].imm == TrigField("p23")

    def test_calls_and_jumps_excluded(self):
        assert make_template([addq(1, 2, 3), bsr(26, 0)], DISE_OPTIONS) is None
        assert make_template([addq(1, 2, 3), ret(26)], DISE_OPTIONS) is None
        assert make_template([halt()],
                             DISE_OPTIONS.with_changes(min_seq_len=1)) is None


class TestDictionarySelection:
    def test_redundant_code_found(self):
        image = redundant_program()
        entries = select_dictionary(image, DISE_OPTIONS)
        assert entries, "the repeated idiom must yield a dictionary entry"
        best = entries[0]
        assert len(best.occurrences) >= 3

    def test_selected_occurrences_disjoint(self):
        image = redundant_program()
        entries = select_dictionary(image, DISE_OPTIONS)
        claimed = set()
        for entry in entries:
            for occ in entry.occurrences:
                span = set(range(occ.start, occ.start + occ.length))
                assert not span & claimed
                claimed |= span

    def test_dictionary_size_cap(self):
        image = generate_by_name("bzip2", scale=0.2)
        capped = DISE_OPTIONS.with_changes(max_dict_entries=3)
        entries = select_dictionary(image, capped)
        assert len(entries) <= 3

    def test_candidates_respect_blocks(self):
        image = redundant_program()
        from repro.program.blocks import find_basic_blocks

        block_of = {}
        for block in find_basic_blocks(image):
            for index in block.indices():
                block_of[index] = block.block_id
        for occurrences in enumerate_candidates(image, DISE_OPTIONS).values():
            for occ in occurrences:
                blocks = {
                    block_of[i]
                    for i in range(occ.start, occ.start + occ.length)
                }
                assert len(blocks) == 1, "candidates must not straddle blocks"


class TestCompressionTransform:
    def test_identity_on_small_program(self):
        image = redundant_program()
        plain = run_program(image)
        result = compress_image(image, DISE_OPTIONS)
        assert result.text_ratio < 1.0
        decompressed = result.installation().run()
        assert decompressed.outputs == plain.outputs
        assert decompressed.final_memory == plain.final_memory

    def test_identity_for_all_variants_on_benchmark(self):
        image = generate_by_name("bzip2", scale=0.2)
        plain = run_program(image, record_trace=False)
        for name, options in FIGURE7_VARIANTS:
            result = compress_image(image, options)
            run = result.installation().run(record_trace=False)
            assert run.outputs == plain.outputs, name
            assert not run.faulted, name

    def test_compressed_text_accounting(self):
        image = redundant_program()
        result = compress_image(image, DISE_OPTIONS)
        assert result.original_text_bytes == image.text_size
        assert result.compressed_text_bytes == result.image.text_size
        expected = (image.text_size
                    - result.instructions_removed * INSTRUCTION_BYTES)
        assert result.compressed_text_bytes == expected

    def test_dictionary_bytes(self):
        image = redundant_program()
        result = compress_image(image, DISE_OPTIONS)
        total_instrs = sum(
            len(spec) for spec in result.production_set.replacements.values()
        )
        assert result.dictionary_bytes == total_instrs * 8

    def test_two_byte_codewords_layout(self):
        image = generate_by_name("mcf", scale=0.2)
        result = compress_image(image, DEDICATED_OPTIONS)
        assert not result.image.uniform_size()
        # Addresses remain strictly increasing and match sizes.
        addrs, sizes = result.image.addresses, result.image.sizes
        for i in range(1, len(addrs)):
            assert addrs[i] == addrs[i - 1] + sizes[i - 1]

    def test_compressing_twice_rejected(self):
        image = generate_by_name("mcf", scale=0.2)
        result = compress_image(image, DEDICATED_OPTIONS)
        with pytest.raises(CompressionError):
            compress_image(result.image, DEDICATED_OPTIONS)

    def test_branch_compression_preserves_loops(self):
        image = redundant_program(iterations=7)
        result = compress_image(image, DISE_OPTIONS)
        swallowed_branches = any(
            any(r.opcode is not None and r.opcode.is_branch
                for r in spec.instrs)
            for spec in result.production_set.replacements.values()
        ) if result.production_set else False
        run = result.installation().run()
        assert run.outputs == run_program(image).outputs
        # (If a branch was compressed, the loop still iterated correctly.)

    def test_ratios_ordering_matches_feature_sets(self):
        image = generate_by_name("gzip", scale=0.2)
        by_name = {}
        for name, options in FIGURE7_VARIANTS:
            by_name[name] = compress_image(image, options).text_ratio
        assert by_name["DISE"] <= by_name["+3param"] <= by_name["+8byteDE"]
        assert by_name["dedicated"] <= by_name["-1insn"] <= by_name["-2byteCW"]


# ----------------------------------------------------------------------
# Pinned dictionary digests
# ----------------------------------------------------------------------
#: Scale of the images the pinned digests cover.
DIGEST_SCALE = 0.05
#: Order of the digests in each ``PINNED_DIGESTS`` row.
DIGEST_VARIANTS = (tuple(name for name, _ in FIGURE7_VARIANTS)
                   + COMPOSITION_SCHEMES)
#: Profiles the tier-1 suite checks; CI checks every pinned profile.
TIER1_DIGEST_PROFILES = ("bzip2", "mcf")


def _canonical_directive(directive):
    if directive is None:
        return None
    if isinstance(directive, Lit):
        return ["lit", directive.value]
    if isinstance(directive, TrigField):
        return ["trig", directive.field]
    raise TypeError(f"unexpected directive {directive!r}")


def _canonical_compression(result, entries):
    """Everything a compression decides, as JSON-ready lists — never
    ``repr``, whose spelling may change between Python versions."""
    image = result.image
    return {
        "entries": [
            [entry.tag,
             [[r.opcode.name] + [_canonical_directive(d)
                                 for d in (r.ra, r.rb, r.rc, r.imm)]
              for r in entry.template],
             [[o.start, o.length, list(o.params)]
              for o in entry.occurrences]]
            for entry in entries
        ],
        "instructions": [[i.opcode.name, i.ra, i.rb, i.rc, i.imm, i.target]
                         for i in image.instructions],
        "addresses": image.addresses,
        "sizes": image.sizes,
        "target_index": image.target_index,
        "symbols": sorted(image.symbols.items()),
        "entry_index": image.entry_index,
        "load_addresses": sorted(image.load_addresses.items()),
        "counters": [
            result.original_text_bytes, result.compressed_text_bytes,
            result.dictionary_entries, result.dictionary_bytes,
            result.instances, result.instructions_removed,
            result.dropped_branch_instances,
        ],
    }


def compression_digests(profile):
    """SHA-256 of the canonical compression of ``profile`` under every
    Figure 7 variant and Figure 8 composition, in ``DIGEST_VARIANTS``
    order.  The dictionary is the one ``select_dictionary`` returned, after
    layout dropped the occurrences whose branch offsets did not fit."""
    image = generate_by_name(profile, scale=DIGEST_SCALE)
    runs = [lambda o=options: compress_image(image, o)
            for _, options in FIGURE7_VARIANTS]
    runs += [lambda s=scheme: build_composition(image, s)[0]
             for scheme in COMPOSITION_SCHEMES]
    selected = []
    real_select = compression.select_dictionary

    def recording_select(*args, **kwargs):
        entries = real_select(*args, **kwargs)
        selected.append(entries)
        return entries

    digests = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compression, "select_dictionary", recording_select)
        for run in runs:
            del selected[:]
            result = run()
            (entries,) = selected
            text = json.dumps(_canonical_compression(result, entries),
                              sort_keys=True, separators=(",", ":"))
            digests.append(hashlib.sha256(text.encode()).hexdigest())
    return tuple(digests)


PINNED_DIGESTS = {
    "bzip2": (
        "ec41aac143fa04e40e8d0b518522c97e2b5f880fddccee2ce09461dd57e672d2",
        "bc9a1c4204bf898b8431a8a0cd8be63c35c9ce2c14d21b11b49e2fc74d18c5c2",
        "9cab0edb91c92784ffc2b2db0431dcc93233f45273d5f01afb9b013e7188886d",
        "2762ccbbab4ab3bbfba7c9c5fa2851608740719dfd633e8e6d316e5a112960ae",
        "5ac16c537f8f72e4969f3682882592d805f99d689ae27e11379631d8c2a3a896",
        "2925e694977aa0d164796b1e3acc483ce38e5ca817c257c6fb59f6001096ddc8",
        "cb2c111c518f18a61b8dfced69dc2a73d67e22b77afd525249fc862d25b1750f",
        "4bd8f4c5ed0c84337aabb8f379e48eed0ed54fde5eb14056dd8369f4b4c6353c",
        "01710c0697a34338d0688da13eda53b040db38b1fa79a3fb72bb17460f81e6aa",
    ),
    "crafty": (
        "52cb7f8bbcd93f4e41b11abed1e41c4fc2a896634a1f275de2ff9474ea931244",
        "f371ec19c29dc491bbc8bb0321bb36cd77571d751aea0d0fd06a5ad91d24fceb",
        "1e34e268194eab7589311307134fd2ed2ef2c3751fad4278c4c73d973cff5b56",
        "fa4eaa93f6184d17c9812644e620ecc2fef0bce9be2770352fa9843dd5d60920",
        "6eb255e7055054fc864a6fb23698e4991604ca6d41a3da07a70c7f5f10243dae",
        "86aab91dfb2a95bdaa3b483767da534e0ae28b09979cf740d0f07539a0656397",
        "a4504cf35393522621a8e1bd6a80ab9311132a48d807a8675f5c8eff09ae17f8",
        "6183e45f078141bdca71f43c144b0be0fd3a3857827fd13cbf0839f89205c492",
        "c4a63de9d3b9b7107c3a34784a5f728a309f8f4456588dcec08da03a2aa58cf9",
    ),
    "eon": (
        "4a367c7aa5c5ac8aad5c063008175bf4f2cc8008207b73b9eb8aed6d5fc7019b",
        "5ecdba1afe1e0e58ef3ad68d387923995ab6407a04efe50a3b657a50057622c0",
        "e3c42b2851a442b225e051443dda4111c35515ed5ecb960f5d7532245564ebbe",
        "8367e9f7b745244434c55aca1defe57df863befd96575b7be648c33f839bbf1a",
        "1aab417451362ac7a652cfa9cbbabfc2858be21f1966c9d7f81ec59ff561d0af",
        "9bcb9d116471efae16000d9c36bcef6243905de278806aadb2e389bc181c0560",
        "dd9e40fa5ae4afb6e03b6eda7768a5ee60816d192d372c08936e30e952cf94f5",
        "f958a9fb44e8722ebe79214f087cc47417a51e12e634dbacc81363005a71467c",
        "d6441ae43461d2273653bf17fde17aa9a5512a57f3111c2e8a6bf8a22168d9f8",
    ),
    "gap": (
        "bc9e47f66996756e2cf6873c8b7939fa53bff24bed42a7eb42d23dfaf75ed0f9",
        "f3975b17a406645deaae61585e1a9f2e18ec37ee1212f60878995575050da317",
        "89bfc72be03d23e6f970595da7c043665d0ab83b5297ff3c81b5a6d774557e3e",
        "296fc9d0ba905602a2fc4508bc40e5c2c7b4ecaa4afb2ac9ece4fdf8966867ba",
        "e4dae03af2b4a35f6edcc14dc10dc243065a40787190a23a6388286e0c31adb5",
        "0b794c9917bda658c170f875426a75a7e3f646429c6fcb0dccf357e8d144b9ab",
        "bea622b098bef0f82e2dd38c72d4ca3cb3c822fe390367d3f20660f15598d898",
        "a2e0b0ebf26b5a9e791e57d3382f447df6bef9c07bd4c180a4227543f2cc015e",
        "ec6adf1c5c3407c615b5e612105a2ee68735a1e3693acfb16d04a4829e0b8e2b",
    ),
    "gcc": (
        "8774d0f43d2c3d32b5ccec2d1eb01e4983280a6bba992a96fcadd44f7c8d58ab",
        "506b98596b54fc12b0d11a1e3f8801152b9536d6fb171b974b495d128b323aec",
        "e9b079139541c97b726488c2c9bfa30b576a7dd390fc5769be99041abf44bdbb",
        "a34770f6ceacc816c0a44ed4ae3e49b7ab1a2962a279b38c409034222fa23fe4",
        "0f4e9d235af55488774273e529f4a8a98e6a146d16b5411ffe240f4a57fb5011",
        "1495859b8e70de9d149add80666106ea5539a9da07f5c9c903b09b095ad58ada",
        "ca9cde11d01146c191c220ee644e3413d83deb8f9317b3f4587872d95a959103",
        "dba6f2780e768c3a18d9c3490217cedd219d0278b0ba544ceb540f65d70d2ee9",
        "3ab7498e1b17d8e4bb517eba05842d488da421a3597ec38acdffae02fc5312d2",
    ),
    "gzip": (
        "1f93251bd396c6814ccdcd51195ec80b5db0b2dda5a4bdcdf811694989258f80",
        "a9cd5fcf0ba8adf0c1b981bfec1a43295c6fd8f9e7f22ba6f8cc5ea12a2f9047",
        "bbb40c8561d8673bf01c580a900a560f10c805ef37acfab78e84f60f212b418c",
        "bc3375e0987f41e8812c12fccb01a86090d8b24c07de42a3b274aa2cf30315a8",
        "0135a9b5004538cdf752c5b11355d19fb0b4913e21c7791497b05dec2e8e34a0",
        "85cc52363427090be46a57f8b58fc95fb316378bdc56b84614a9c96e9b5f714d",
        "7e7ed3425058ca853df72608ea7e35bd40cbd2cd68011e60a77ca85aba11408d",
        "3a67ddde0c397ed9958c5d2be3f63a965fa02c32681255691295927ad2262c29",
        "47931c7fbe6f125d84bc84c1f46869fead2b2597e9c83b7b069ada3d349c5ee4",
    ),
    "mcf": (
        "463bbdf6b2f3b6f559c351640a83169fd934377b2d25e8e3e69ea14eb172e867",
        "976e1110430242f62dd46456949c459b453068060cc64a6c66d030576f8e71d8",
        "280fd5815a42cfed5cab83cc6e51796cb13d140de451cfde0907ebb5afecdaa5",
        "0431bd0a51e6d1ebffa96689fe411a47a393672fcada0ac0602c69f694c64afe",
        "c0f036fe86afa9b433a911d7fed748797db581a50f31063986147bdba8f4a40c",
        "c7fb628ad28b8f4e2a3e8582c215bd77ff3fc2739f4920a2088921d0550b1567",
        "a47c222e2bc35204f44821b87a239375f29b10018ff7fcf47ad25596fe9f39e7",
        "9234deb2bf9927d81936cd670887f3c0000351d16f11a4ad40bc1c2f9e3d5fd0",
        "aefd86bb88bb2a4d5807a589ff15623744aaa6ddb559de6e3d36c676a151657a",
    ),
    "parser": (
        "8f3c1b1825007eb5e636ae682a8bde94b54259ebfb34cba03480a1b6ab900536",
        "c0f011a74f30dbcd6ba8702ca53949ea44b4fbb1f82c2fbe1fed903842800b38",
        "fe4e25d177d3058c13fe784432102d8ccadbf29ed4ec1115ea2ef6eb0af3724a",
        "3685a941653db25a955e7bc79427be633e9630652a4ef8fcb080ca86a1ce6ae9",
        "86777eb7a2d8bc33704c8185612627c05c127f0b1d5f523161d274cf5403ece6",
        "5f65459ef13584011d31c429dcb7607213294261b43510058998a8146712b2a7",
        "d3aab0fa78cdb80a7d2b27b58076745cff7251672c1b639ea3980cd37ca798fb",
        "fbea0f395475a5f6399179c7aeb39869b3a9e38f3f831bc4f472d27d5c398501",
        "a2b7da7b4390cbd5dfb8dfce7f550247977fe1befed02d35dac7d3569a90cff7",
    ),
    "perlbmk": (
        "c0fa092c0c8f27dc8bfa5acf969f01304e466775c04c38ac56227edd09ee9c42",
        "50cf2bde026a1ca489653f73f7b7de3ec7a9c8cf494316bc5914dde4ee145d2e",
        "fb5e46bdf79f5a83af7e0a1bd03e5f4e9e49aa2e99504cb522565f1c45751735",
        "bfec92ecd2c6bd517414f3ef179cf0dc66d30eb603a8e6dde7b38b4e68198ff1",
        "a30144eace35509fe39d2133278b043a8317708c9478ff775d49329c40a10ea6",
        "18e9dea5b5195640fa2f941637fb5fb2de9befb7d3c99456f3e768f839b5d6ed",
        "10303a59bfbc5906921d9aee54fc4495b849482668648b7f6012d8e8ffa604b8",
        "22ad4091072c34a79288065a20cf54558ea91b8bd2780cfcf283eb9f69632b28",
        "14e072d773a80ade360c7b16036d141f2cda6600a10d2d537314fbcd3e0927de",
    ),
    "twolf": (
        "12e539461077ca2f7036b9328480bfd94a3d3c5f8c0917f7a406e9ee3eb2ab76",
        "6aa56d845ae00523973b58e24e1774db8da76947a9316d04fca5a1de72d659db",
        "314b99806264012a7a55d7d2013426c51750f946af990105dddb4d0824408c41",
        "feac46d6f523ccc34f8bb478b758b971965df2d5b40f3f9f6f7bbb085bffffa0",
        "39d84ee7c589f109625ba017c1ddf71931b166986cdb4113268592b66465b552",
        "76685c1f0ee6ff57fd3148d95beaf38a6ec67b0761d579db693e69ee597abd17",
        "74a63235a93c2d8425023b2006e73d836a28a0697213f858ddadf02b6f663a4f",
        "14def5c2b0f7fa7afca4ad254ad42cb251c649c3fc0c72b6175f23b0dc5637df",
        "fd3ec7e8a5c837666466c2c8fc929b655e5438d5a03f428689ddbb10bca073fe",
    ),
    "vortex": (
        "1842c04cb4cd62e3ba1100f39a42267eda7753a01c30e8c43ed102d45759ee5d",
        "0059f2b96fbab32ba5718b169cc3e77b7024f8e0e435cfeed2eba36ff98c6c62",
        "547b3c9806996981446067be62af2cda628961f862ab7ea14bff9df07258b85c",
        "7567c7d955472dad6560ed8a889dc3ae04ff21544f76ee9598cba5fe098a2263",
        "79e7745c6051382d40a1a7532668329d36abc987b9b4f17bb19960928f534c54",
        "9bc2d2e72f014c67a1f8af3e0f4a9154afe830bd09f970febf84c132825ac971",
        "29b8a2be2007016d8daa94b241b75fe02d2575aa840aba7f9e7981d6279e8654",
        "9514e13bed6f83b91cbeaa4cc10dbadc9e5ca13578c420248fe02f405a5577e8",
        "9446d2fff3f3477b04622ffacaedc1da7bdbd92b5d84c00360163be61da8cac4",
    ),
    "vpr": (
        "f7545755e37f9b5ad6baea92eb0c71342fe7715b75d12496a1e5e138c22315e0",
        "ace7128302e73bbff6243e590e63dc8764c00c71adf47c9437fd070003f2d558",
        "12e5d63c95f856e4da94da22e5e7eb1d1a96ae91cb10adba25cd3145270a408e",
        "10202067496dc68e154c2cda82ae1aebffd071ce67ef9f472fe81e608c657404",
        "fea37ab1ae6b7880ac0418d05954ddc9d61fb3b23fadd2571ed23940005e78ed",
        "1fd6cf3be83b1a6d92cbe22918fdfdcdee8b079dc63e1d5b0647b62e4927de49",
        "1f5d6d04da87036c94b26f3adb68c8f3a91701bf2ba8cf68e943b54a5b103e2c",
        "43a63af34f1337931afcf1351a42bb4d9c9ac43216af3ce89797bda8d6ec16ac",
        "12c006bc5616d4f81988e465747bfd394f2943f13a316f8062b593354133e9a0",
    ),
}


@pytest.mark.parametrize("profile", TIER1_DIGEST_PROFILES)
def test_dictionary_digests_pinned(profile):
    got = compression_digests(profile)
    mismatched = [name for name, digest, pinned in
                  zip(DIGEST_VARIANTS, got, PINNED_DIGESTS[profile])
                  if digest != pinned]
    assert not mismatched, f"{profile}: compression changed for {mismatched}"
