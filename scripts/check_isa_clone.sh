#!/usr/bin/env bash
# Clone-completeness check for `licom::lanes::Isa::run`.
#
# The AVX2 clone only speeds up what LLVM inlines into it: a kernel body or
# helper left as an out-of-line call inside `licom::lanes::avx2_clone` still
# computes the right bits, but at the baseline ISA, silently. This script
# disassembles a release binary and fails if any instantiation of the clone
# calls into `licom::`, `kokkos_rs::`, `core::array::` or
# `std::thread::local::LocalKey`; per instantiation it prints who enters it
# and how many packed divides are 256-bit (`ymm`) against 128-bit (`xmm`).
#
# It also fails unless the two column passes — the momentum pass that reads
# the old level and the one that finishes the new level — run inside a
# clone: each pass's list span (`operator_span` of `licom::baroclinic::
# FunctorMomentumColumns` / `licom::columns::FunctorNewLevelColumns`, kept
# out of line so it has a symbol) must reach an instantiation of the clone
# within three calls — through the per-thread scratch (`LocalKey::with`) it
# enters the clone from.
#
#   scripts/check_isa_clone.sh BINARY     (any release binary that steps a model,
#                                          e.g. target/release/licomkpp)
set -euo pipefail

bin=${1:?usage: scripts/check_isa_clone.sh BINARY}
if ! command -v objdump >/dev/null; then
    echo "check_isa_clone: skipped, objdump not found"
    exit 0
fi
if [ "$(uname -m)" != x86_64 ]; then
    echo "check_isa_clone: skipped, a $(uname -m) build has no AVX2 clone"
    exit 0
fi
if [ ! -x "$bin" ]; then
    echo "check_isa_clone: $bin not found (cargo build --release first)" >&2
    exit 2
fi

objdump -d -C --no-show-raw-insn "$bin" | awk -v passes="baroclinic::FunctorMomentumColumns columns::FunctorNewLevelColumns" '
    # "0000000000134e20 <name>:" opens a function.
    /^[0-9a-f]+ <.*>:$/ {
        addr = $1; sub(/^0+/, "", addr)
        fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
        name[addr] = fn
        in_clone = (fn == "licom::lanes::avx2_clone")
        if (in_clone) { clones[++n] = addr; ymm[addr] = 0; xmm[addr] = 0 }
        next
    }
    # A call, or a tail call: a jump to the start of another function.
    /\t(call|jmp) +[0-9a-f]+ <[^+]*>$/ {
        target = $0; sub(/^.*\t(call|jmp) +/, "", target)
        taddr = target; sub(/ .*/, "", taddr); sub(/^0+/, "", taddr)
        sym = target; sub(/^[0-9a-f]+ </, "", sym); sub(/>$/, "", sym)
        if (index(" " edges[addr] " ", " " taddr " ") == 0) edges[addr] = edges[addr] " " taddr
        if (sym == "licom::lanes::avx2_clone") {
            # Who enters the clone (the scratch walkers do from inside
            # their `LocalKey::with`, which is all the symbol says).
            if (index(callers[taddr], fn) == 0) callers[taddr] = callers[taddr] "\n      from " fn
        } else if (in_clone && sym ~ /^<?(licom|kokkos_rs)::|core::array::|std::thread::local::LocalKey/) {
            if (index(bad[addr], sym) == 0) bad[addr] = bad[addr] "\n      OUT-OF-LINE " sym
            failed = 1
        }
    }
    in_clone && /\tv?divpd / {
        if ($0 ~ /%ymm/) ymm[addr]++; else xmm[addr]++
    }
    END {
        if (n == 0) {
            print "check_isa_clone: FAILED, no licom::lanes::avx2_clone in the binary"
            exit 1
        }
        for (c = 1; c <= n; c++) {
            a = clones[c]
            printf "  avx2_clone @%s  divpd ymm %d / xmm %d%s%s\n", a, ymm[a], xmm[a], callers[a], bad[a]
        }
        # Each column pass: its span, and the clone it reaches.
        np = split(passes, pass, " ")
        for (p = 1; p <= np; p++) {
            want = "<licom::" pass[p] " as kokkos_rs::functor::FunctorList>::operator_span"
            found = ""
            for (a in name) {
                if (name[a] != want) continue
                # Breadth first, three calls deep.
                frontier = a
                for (depth = 0; depth < 3 && found == "" && frontier != ""; depth++) {
                    next_frontier = ""
                    nf = split(frontier, fs, " ")
                    for (f = 1; f <= nf; f++) {
                        ne = split(edges[fs[f]], es, " ")
                        for (e = 1; e <= ne; e++) {
                            if (name[es[e]] == "licom::lanes::avx2_clone") found = es[e]
                            else next_frontier = next_frontier " " es[e]
                        }
                    }
                    frontier = next_frontier
                }
            }
            if (found == "") {
                printf "  %s: FAILED, its span reaches no avx2_clone\n", pass[p]
                failed = 1
            } else {
                printf "  %s: in avx2_clone @%s\n", pass[p], found
            }
        }
        printf "check_isa_clone: %d instantiations, %s\n", n, failed ? "FAILED" : "ok"
        exit failed
    }
'
