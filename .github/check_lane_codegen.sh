#!/usr/bin/env bash
# Codegen guard for the transposed SHA-256 lane kernel (crates/hash/src/lanes.rs).
#
# The kernel's speed is what the compiler emits for it: Σ/σ written as
# unpaired shift-XORs so that LLVM widens them into vector shifts instead
# of fusing them into scalar rotates it will not widen. A toolchain that
# learns to re-pair them would silently halve the commit path's speed with
# every test still green — so this script reads the release assembly.
#
#   cargo rustc -p ugc-hash --release --lib -- --emit asm
#   .github/check_lane_codegen.sh            # newest target/release/deps/ugc_hash-*.s
#   .github/check_lane_codegen.sh file.s     # or a named listing
#
# For every `sha256_compress_lanes*` symbol (the general and the
# padding-block kernel at lane widths 4 and 8; they are `#[inline(never)]`
# so that they exist) it prints the count of vector shifts (pslld/psrld)
# and of scalar rotates (rol/ror), and fails unless there are exactly
# EXPECTED_SYMBOLS of them, each with at least MIN_VECTOR_SHIFTS of the
# former and at most MAX_SCALAR_ROTATES of the latter. A kernel that is
# inlined away, or a width that stops being instantiated, fails the count.
# x86_64 only.
set -euo pipefail

EXPECTED_SYMBOLS=4
MIN_VECTOR_SHIFTS=8
MAX_SCALAR_ROTATES=4

asm=${1:-$(ls -t target/release/deps/ugc_hash-*.s 2>/dev/null | head -n 1)}
if [ -z "$asm" ] || [ ! -f "$asm" ]; then
    echo "check_lane_codegen: no assembly listing; run" >&2
    echo "  cargo rustc -p ugc-hash --release --lib -- --emit asm" >&2
    exit 2
fi

awk -v expected="$EXPECTED_SYMBOLS" -v min_shifts="$MIN_VECTOR_SHIFTS" \
    -v max_rotates="$MAX_SCALAR_ROTATES" '
    /^[A-Za-z_.$][^ \t]*:/ {
        # A label. Function symbols start a new region; local .L labels do not end one.
        if ($0 !~ /^\.L/) {
            current = ($0 ~ /sha256_compress_lanes/) ? substr($0, 1, length($0) - 1) : ""
            if (current != "" && !(current in shifts)) {
                order[++symbols] = current
                shifts[current] = 0
                rotates[current] = 0
            }
        }
        next
    }
    current != "" && $1 ~ /^v?ps[lr]ld$/ { shifts[current]++ }
    current != "" && $1 ~ /^ro[lr]x?[bwlq]?$/ { rotates[current]++ }
    END {
        if (symbols == 0) {
            print "FAIL: no sha256_compress_lanes symbol in the listing" \
                  " (the kernel must stay #[inline(never)])"
            exit 1
        }
        scalar = 0
        for (i = 1; i <= symbols; i++) {
            name = order[i]
            ok = (shifts[name] >= min_shifts && rotates[name] <= max_rotates)
            printf "%s  vector shifts: %d  scalar rotates: %d  %s\n", \
                   (ok ? "ok  " : "FAIL"), shifts[name], rotates[name], name
            if (!ok) scalar = 1
        }
        if (scalar) {
            printf "FAIL: want >= %d vector shifts and <= %d scalar rotates per symbol\n", \
                   min_shifts, max_rotates
        }
        if (symbols != expected) {
            printf "FAIL: found %d sha256_compress_lanes symbols, want exactly %d\n", \
                   symbols, expected
        }
        if (scalar || symbols != expected) exit 1
    }
' "$asm"
