"""SPECint-like synthetic kernels.

The paper evaluates on the SPEC 2000 integer suite compiled for Alpha.
Those binaries (and an Alpha front end) are unavailable here, so each
kernel below is a hand-written assembly program chosen to reproduce the
behaviours SPECint exhibits and that register caching is sensitive to:

* mostly single-use register values with short live ranges,
* a minority of high-use values (base pointers, loop bounds, preloaded
  pattern words) that benefit from pinning,
* *many simultaneously live values*: kernels run 2-4 independent strands
  per loop iteration so that, with a 128-entry window, tens of register
  values are live at once (Figure 2 of the paper reports a 90th
  percentile of ~56 live values on an 8-wide machine),
* dependence chains through loads (pointer chasing),
* data-dependent and indirect branches (interpreter dispatch),
* stores that consume values straight off the bypass network.

Every builder takes a ``scale`` parameter (>= 0.1) that multiplies the
dynamic instruction count, and a ``seed`` so data sets are reproducible.
Builders return assembly text; :mod:`repro.workloads.suite` assembles and
executes them.
"""

from __future__ import annotations

import random

# Data-memory layout bases (word addresses). Spread across distinct
# regions so data-cache behaviour is not degenerate.
_BASE_A = 0x1000
_BASE_B = 0x9000
_BASE_C = 0x11000


def _data_section(base: int, values: list[int], per_line: int = 16) -> str:
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append(
            f".data {base + start}: " + " ".join(str(v) for v in chunk)
        )
    return "\n".join(lines)


def pointer_chase(scale: float = 1.0, seed: int = 7) -> str:
    """mcf-like linked-list traversal, three independent chains.

    Each chain is serialized through its load-use dependence; the three
    chains provide memory-level parallelism while keeping the live-value
    population in the range Figure 2 of the paper reports.
    """
    rng = random.Random(seed)
    num_nodes = max(256, int(6000 * scale))
    iterations = max(64, int(1800 * scale))
    order = list(range(num_nodes))
    rng.shuffle(order)
    next_ptr = [0] * num_nodes
    for position, node in enumerate(order):
        successor = order[(position + 1) % num_nodes]
        next_ptr[node] = _BASE_A + 2 * successor
    node_words: list[int] = []
    for i in range(num_nodes):
        node_words.append(next_ptr[i])
        node_words.append(rng.randrange(1, 1000))
    heads = [
        _BASE_A + 2 * order[(i * num_nodes) // 3] for i in range(3)
    ]
    return f"""
# pointer_chase: three parallel linked-list walks (mcf-like)
main:
    addi r16, r0, {heads[0]}
    addi r17, r0, {heads[1]}
    addi r18, r0, {heads[2]}
    addi r20, r0, 0
    addi r21, r0, 0
    addi r22, r0, 0
    addi r4, r0, {iterations}
loop:
    lw   r16, 0(r16)
    add  r20, r20, r16
    lw   r17, 0(r17)
    add  r21, r21, r17
    lw   r18, 0(r18)
    add  r22, r22, r18
    addi r4, r4, -1
    bne  r4, r0, loop
    add  r5, r20, r21
    add  r5, r5, r22
    out  r5
    halt
{_data_section(_BASE_A, node_words)}
"""


def compress(scale: float = 1.0, seed: int = 11) -> str:
    """bzip2-like byte-frequency counting, four positions per iteration,
    plus a run-length scan."""
    rng = random.Random(seed)
    length = max(128, int(2000 * scale))
    length -= length % 4
    data: list[int] = []
    while len(data) < length:
        byte = rng.randrange(16) if rng.random() < 0.7 else rng.randrange(256)
        data.extend([byte] * rng.randrange(1, 5))
    data = data[:length]
    # Eight lanes with disjoint register triples (r16..r39): wide ILP and
    # a long architectural-register reassignment distance, as compiled
    # SPEC code exhibits.
    body = []
    for lane in range(8):
        t1, t2, t3 = 16 + 3 * lane, 17 + 3 * lane, 18 + 3 * lane
        body.append(f"""
    addi r{t1}, r5, {lane}
    add  r{t1}, r2, r{t1}
    lw   r{t2}, 0(r{t1})
    andi r{t2}, r{t2}, 255
    add  r{t3}, r4, r{t2}
    lw   r{t2}, 0(r{t3})
    addi r{t2}, r{t2}, 1
    sw   r{t2}, 0(r{t3})""")
    freq_body = "".join(body)
    length -= length % 8
    return f"""
# compress: 8-lane frequency count + run detection (bzip2-like)
main:
    addi r2, r0, {_BASE_A}      # input buffer
    addi r3, r0, {length}
    addi r4, r0, {_BASE_B}      # frequency table
    addi r5, r0, 0              # index
freq:{freq_body}
    addi r5, r5, 8
    bne  r5, r3, freq
    # run-length scan
    addi r5, r0, 1
    lw   r10, 0(r2)             # previous byte
    addi r11, r0, 0             # run count
rle:
    add  r6, r2, r5
    lw   r7, 0(r6)
    beq  r7, r10, same
    addi r11, r11, 1
    mov  r10, r7
same:
    addi r5, r5, 1
    bne  r5, r3, rle
    out  r11
    halt
{_data_section(_BASE_A, data)}
"""


def hash_dict(scale: float = 1.0, seed: int = 13) -> str:
    """perlbmk-like hashing: four keys hashed in parallel, then four
    open-addressing probe loops the out-of-order core overlaps."""
    rng = random.Random(seed)
    num_keys = max(64, int(900 * scale))
    num_keys -= num_keys % 4
    table_bits = 13
    mask = (1 << table_bits) - 1
    pool = [rng.randrange(1, 1 << 30) for _ in range(max(8, num_keys // 3))]
    keys = [
        rng.choice(pool) if rng.random() < 0.4 else rng.randrange(1, 1 << 30)
        for _ in range(num_keys)
    ]
    lanes = []
    for lane in range(4):
        key_reg = 16 + lane          # key for this lane
        slot_reg = 20 + lane         # probe slot
        tmp = 24 + lane              # probe address / loaded key
        lanes.append(f"""
probe{lane}:
    add  r{tmp}, r4, r{slot_reg}
    lw   r{tmp}, 0(r{tmp})
    beq  r{tmp}, r0, insert{lane}
    beq  r{tmp}, r{key_reg}, found{lane}
    addi r{slot_reg}, r{slot_reg}, 1
    and  r{slot_reg}, r{slot_reg}, r13
    beq  r0, r0, probe{lane}
insert{lane}:
    add  r{tmp}, r4, r{slot_reg}
    sw   r{key_reg}, 0(r{tmp})
    beq  r0, r0, next{lane}
found{lane}:
    addi r14, r14, 1
next{lane}:""")
    probes = "".join(lanes)
    hash_body = []
    for lane in range(4):
        key_reg = 16 + lane
        slot_reg = 20 + lane
        hash_body.append(f"""
    addi r6, r5, {lane}
    add  r6, r2, r6
    lw   r{key_reg}, 0(r6)
    mul  r{slot_reg}, r{key_reg}, r12
    srli r{slot_reg}, r{slot_reg}, 11
    and  r{slot_reg}, r{slot_reg}, r13""")
    hashes = "".join(hash_body)
    return f"""
# hash_dict: 4-way multiplicative hash + linear probing (perlbmk-like)
main:
    addi r2, r0, {_BASE_A}      # key array
    addi r3, r0, {num_keys}
    addi r4, r0, {_BASE_C}      # hash table
    addi r5, r0, 0              # key index
    lui  r12, 0x9E37
    ori  r12, r12, 0x79B9       # hash multiplier
    addi r13, r0, {mask}
    addi r14, r0, 0             # hit counter
outer:{hashes}{probes}
    addi r5, r5, 4
    bne  r5, r3, outer
    out  r14
    halt
{_data_section(_BASE_A, keys)}
"""


def sort(scale: float = 1.0, seed: int = 17) -> str:
    """Insertion sort plus a 4-lane verification checksum."""
    rng = random.Random(seed)
    count = max(16, int(130 * (scale ** 0.5)))
    count -= count % 4
    values = [rng.randrange(0, 10_000) for _ in range(count)]
    return f"""
# sort: insertion sort + 4-lane ordered checksum
main:
    addi r2, r0, {_BASE_A}      # array
    addi r3, r0, {count}
    addi r5, r0, 1              # i
outer:
    add  r6, r2, r5
    lw   r7, 0(r6)              # key
    mov  r8, r5                 # j
inner:
    beq  r8, r0, place
    addi r9, r8, -1
    add  r10, r2, r9
    lw   r11, 0(r10)
    bge  r7, r11, place
    add  r12, r2, r8
    sw   r11, 0(r12)
    mov  r8, r9
    beq  r0, r0, inner
place:
    add  r12, r2, r8
    sw   r7, 0(r12)
    addi r5, r5, 1
    bne  r5, r3, outer
    # checksum: four independent lanes of element * index
    addi r5, r0, 0
    addi r16, r0, 0
    addi r17, r0, 0
    addi r18, r0, 0
    addi r19, r0, 0
check:
    add  r20, r2, r5
    lw   r21, 0(r20)
    mul  r22, r21, r5
    add  r16, r16, r22
    addi r24, r5, 1
    add  r25, r2, r24
    lw   r26, 0(r25)
    mul  r27, r26, r24
    add  r17, r17, r27
    addi r28, r5, 2
    add  r29, r2, r28
    lw   r30, 0(r29)
    mul  r31, r30, r28
    add  r18, r18, r31
    addi r32, r5, 3
    add  r33, r2, r32
    lw   r34, 0(r33)
    mul  r35, r34, r32
    add  r19, r19, r35
    addi r5, r5, 4
    bne  r5, r3, check
    add  r16, r16, r17
    add  r18, r18, r19
    add  r16, r16, r18
    out  r16
    halt
{_data_section(_BASE_A, values)}
"""


def graph_walk(scale: float = 1.0, seed: int = 19) -> str:
    """Sparse-graph neighbour accumulation in CSR form, two vertices per
    visit iteration (mcf/vpr-like)."""
    rng = random.Random(seed)
    num_vertices = max(128, int(2500 * scale))
    visits = max(64, int(700 * scale))
    visits -= visits % 2
    row_ptr = [0]
    col_idx: list[int] = []
    for _ in range(num_vertices):
        degree = rng.randrange(1, 7)
        col_idx.extend(rng.randrange(num_vertices) for _ in range(degree))
        row_ptr.append(len(col_idx))
    visit_order = [rng.randrange(num_vertices) for _ in range(visits)]
    return f"""
# graph_walk: CSR neighbour sweep, two vertices in flight
main:
    addi r2, r0, {_BASE_A}      # row_ptr
    addi r3, r0, {_BASE_B}      # col_idx
    addi r4, r0, {_BASE_C}      # visit order
    addi r5, r0, {visits}
    addi r6, r0, 0              # visit index
    addi r16, r0, 0             # accumulator A
    addi r26, r0, 0             # accumulator B
visit:
    add  r8, r4, r6
    lw   r9, 0(r8)              # vertex A
    lw   r19, 1(r8)             # vertex B
    add  r10, r2, r9
    lw   r11, 0(r10)            # A edge start
    lw   r12, 1(r10)            # A edge end
    add  r20, r2, r19
    lw   r21, 0(r20)            # B edge start
    lw   r22, 1(r20)            # B edge end
edgesA:
    bge  r11, r12, edgesB
    add  r13, r3, r11
    lw   r14, 0(r13)
    add  r16, r16, r14
    addi r11, r11, 1
    beq  r0, r0, edgesA
edgesB:
    bge  r21, r22, done_v
    add  r23, r3, r21
    lw   r24, 0(r23)
    add  r26, r26, r24
    addi r21, r21, 1
    beq  r0, r0, edgesB
done_v:
    addi r6, r6, 2
    bne  r6, r5, visit
    add  r16, r16, r26
    out  r16
    halt
{_data_section(_BASE_A, row_ptr)}
{_data_section(_BASE_B, col_idx)}
{_data_section(_BASE_C, visit_order)}
"""


def interp(scale: float = 1.0, seed: int = 23) -> str:
    """gcc/perl-like bytecode interpreter with indirect dispatch.

    A jump table of handler addresses is built at startup; each bytecode
    is dispatched through ``jalr``, exercising the indirect predictor.
    The interpreter's virtual registers (r20, r21, r24, r25) are
    high-degree-of-use values that live across many dispatches — prime
    pinning candidates.
    """
    rng = random.Random(seed)
    num_ops = max(64, int(1600 * scale))
    bytecode = [rng.randrange(8) for _ in range(num_ops)]
    scratch = [rng.randrange(1, 512) for _ in range(64)]
    return f"""
# interp: bytecode interpreter with jump-table dispatch
main:
    addi r16, r0, {_BASE_A}     # bytecode
    addi r17, r0, {num_ops}
    addi r18, r0, {_BASE_B}     # jump table
    addi r19, r0, 0             # instruction pointer
    addi r20, r0, 1             # virtual accumulator
    addi r21, r0, 3             # virtual register b
    addi r24, r0, 7             # virtual register c
    addi r25, r0, 11            # virtual register d
    addi r22, r0, {_BASE_C}     # scratch memory
    addi r23, r0, 63            # scratch mask
    # build the jump table
    addi r6, r0, h_add
    sw   r6, 0(r18)
    addi r6, r0, h_sub
    sw   r6, 1(r18)
    addi r6, r0, h_mul
    sw   r6, 2(r18)
    addi r6, r0, h_shift
    sw   r6, 3(r18)
    addi r6, r0, h_xor
    sw   r6, 4(r18)
    addi r6, r0, h_load
    sw   r6, 5(r18)
    addi r6, r0, h_store
    sw   r6, 6(r18)
    addi r6, r0, h_swap
    sw   r6, 7(r18)
dispatch:
    add  r6, r16, r19
    lw   r7, 0(r6)              # opcode
    add  r8, r18, r7
    lw   r9, 0(r8)              # handler address
    jalr r10, r9, 0             # indirect jump (link discarded)
h_add:
    add  r20, r20, r21
    add  r24, r24, r25
    beq  r0, r0, advance
h_sub:
    sub  r20, r20, r21
    sub  r25, r25, r24
    beq  r0, r0, advance
h_mul:
    mul  r20, r20, r21
    andi r20, r20, 0xffff
    add  r24, r24, r20
    beq  r0, r0, advance
h_shift:
    srli r20, r20, 1
    addi r20, r20, 17
    xor  r25, r25, r20
    beq  r0, r0, advance
h_xor:
    xor  r20, r20, r21
    xor  r24, r24, r25
    beq  r0, r0, advance
h_load:
    and  r11, r20, r23
    add  r12, r22, r11
    lw   r21, 0(r12)
    beq  r0, r0, advance
h_store:
    and  r11, r21, r23
    add  r12, r22, r11
    sw   r20, 0(r12)
    beq  r0, r0, advance
h_swap:
    mov  r11, r20
    mov  r20, r21
    mov  r21, r11
advance:
    addi r19, r19, 1
    bne  r19, r17, dispatch
    add  r20, r20, r24
    add  r20, r20, r25
    out  r20
    halt
{_data_section(_BASE_A, bytecode)}
{_data_section(_BASE_C, scratch)}
"""


def crc(scale: float = 1.0, seed: int = 29) -> str:
    """crafty-like bit manipulation: two branchless CRC streams.

    The inner loop is branch-free (mask trick), giving long shift/xor
    dependence chains interleaved across two independent streams.
    """
    rng = random.Random(seed)
    length = max(32, int(280 * scale))
    length -= length % 4
    words = [rng.randrange(0, 1 << 32) for _ in range(length)]
    quarter = length // 4
    # Four streams with disjoint register groups: crc in r6/r26/r36/r46,
    # temporaries in (r10-r12)/(r20-r22)/(r30-r32)/(r40-r42).
    streams = [(6, 10, 11, 12), (26, 20, 21, 22), (36, 30, 31, 32),
               (46, 40, 41, 42)]
    bit_step = "".join(f"""
    andi r{t0}, r{c}, 1
    sub  r{t1}, r0, r{t0}
    and  r{t2}, r5, r{t1}
    srli r{c}, r{c}, 1
    xor  r{c}, r{c}, r{t2}""" for c, t0, t1, t2 in streams)
    bits = bit_step * 4
    loads = "".join(f"""
    addi r{t0}, r4, {i * 10_000}
    add  r{t0}, r2, r{t0}
    lw   r{t1}, 0(r{t0})
    xor  r{c}, r{c}, r{t1}""" for i, (c, t0, t1, _t2) in enumerate(streams))
    inits = "".join(f"""
    addi r{c}, r0, -1""" for c, *_ in streams)
    data_sections = "\n".join(
        _data_section(_BASE_A + i * 10_000, words[i * quarter:(i + 1) * quarter])
        for i in range(4)
    )
    return f"""
# crc: four interleaved branchless CRC streams
main:
    addi r2, r0, {_BASE_A}
    addi r3, r0, {quarter}
    addi r4, r0, 0              # word index
    lui  r5, 0xEDB8
    ori  r5, r5, 0x8320         # polynomial{inits}
word:{loads}
    addi r9, r0, 2              # 2 x 4 unrolled bit steps
bit:{bits}
    addi r9, r9, -1
    bne  r9, r0, bit
    addi r4, r4, 1
    bne  r4, r3, word
    xor  r6, r6, r26
    xor  r36, r36, r46
    xor  r6, r6, r36
    out  r6
    halt
{data_sections}
"""


def strmatch(scale: float = 1.0, seed: int = 31) -> str:
    """vortex-like string matching: naive search, two positions per
    iteration, pattern preloaded into registers (high-use values)."""
    rng = random.Random(seed)
    text_len = max(128, int(1100 * scale))
    text_len -= text_len % 2
    pattern_len = 4
    alphabet = 6
    text = [rng.randrange(alphabet) for _ in range(text_len)]
    pattern = [rng.randrange(alphabet) for _ in range(pattern_len)]
    for _ in range(max(2, text_len // 50)):
        pos = rng.randrange(text_len - pattern_len - 2)
        text[pos:pos + pattern_len] = pattern
    limit = text_len - pattern_len
    limit -= limit % 4
    # Four search positions per iteration, each with a disjoint register
    # group, so many values are live and arch registers are reassigned
    # at SPEC-like distances.
    lanes = []
    for lane, base in enumerate((20, 26, 32, 38)):
        addr, t0, t1, t2, t3, off = (
            base, base + 1, base + 2, base + 3, base + 4, base + 5
        )
        lanes.append(f"""
    addi r{off}, r6, {lane}
    add  r{addr}, r2, r{off}
    lw   r{t0}, 0(r{addr})
    bne  r{t0}, r16, fail{lane}
    lw   r{t1}, 1(r{addr})
    bne  r{t1}, r17, fail{lane}
    lw   r{t2}, 2(r{addr})
    bne  r{t2}, r18, fail{lane}
    lw   r{t3}, 3(r{addr})
    bne  r{t3}, r19, fail{lane}
    addi r7, r7, 1
fail{lane}:""")
    body = "".join(lanes)
    return f"""
# strmatch: naive substring search, 4 positions per iteration
main:
    addi r2, r0, {_BASE_A}      # text
    addi r4, r0, {limit}
    addi r6, r0, 0              # i
    addi r7, r0, 0              # match count
    # preload pattern into registers (high-use values)
    addi r3, r0, {_BASE_B}
    lw   r16, 0(r3)
    lw   r17, 1(r3)
    lw   r18, 2(r3)
    lw   r19, 3(r3)
outer:{body}
    addi r6, r6, 4
    bne  r6, r4, outer
    out  r7
    halt
{_data_section(_BASE_A, text)}
{_data_section(_BASE_B, pattern)}
"""


#: All kernel builders, keyed by benchmark name. Order matches the
#: presentation order used in EXPERIMENTS.md and DEFAULT_SUITE.
KERNELS = {
    "pointer_chase": pointer_chase,
    "compress": compress,
    "hash_dict": hash_dict,
    "sort": sort,
    "graph_walk": graph_walk,
    "interp": interp,
    "crc": crc,
    "strmatch": strmatch,
}
