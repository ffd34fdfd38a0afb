#!/usr/bin/env bash
# Public functions that nothing else names, then those only tests name.
#
# First section: every `pub fn` under crates/*/src whose name appears on
# no other line of the Rust sources under crates/, src/, tests/,
# examples/, tools/ and dreambench/src. Second section: every such
# `pub fn` outside test code whose name other lines carry only in test
# code. Test code is a file under a tests/ directory or named tests.rs
# (an out-of-line test module) and, in every other file, everything from
# its first `#[cfg(test)]` item on; a `#[cfg(test)] mod name;`
# declaration does not start it.
#
# Comment lines do not count as a use. A name any other code line
# carries as a word counts as used, so a common name (`new`, `len`) is
# never listed: the report can miss dead code, and a listed name may
# still be reached through a trait or a macro, which the reader checks.
# A report, not a gate: it exits non-zero only when it cannot read the
# tree.
#
# Usage: scripts/unused_pub.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Tracked files plus new ones not yet added, as they are on disk.
sources() {
    git ls-files --cached --others --exclude-standard -- \
        crates src tests examples tools dreambench/src |
        sort -u | grep -E '\.rs$' | while IFS= read -r path; do
        [ -f "$path" ] && printf '%s\n' "$path"
    done
}

# Whether a whole file is test code (1) or not (0).
test_file() {
    case "$1" in
    tests/* | */tests/* | */tests.rs) echo 1 ;;
    *) echo 0 ;;
    esac
}

# The awk rules that set `test` once a file's test tail begins: the line
# after a `#[cfg(test)]` starts it unless it declares an out-of-line
# module.
tail_rules='
    cfg { cfg = 0; if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z0-9_]*;/) test = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = 1 }'

defs=$(mktemp)
trap 'rm -f "$defs"' EXIT
sources | grep -E '^crates/[^/]+/src/' | while IFS= read -r path; do
    awk -v path="$path" -v test="$(test_file "$path")" "$tail_rules"'
        match($0, /^[[:space:]]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
            print name, path ":" FNR, (test ? "test" : "code")
        }' "$path"
done >"$defs"

# One "<code|test> <word>" line per word of every code line.
sources | while IFS= read -r path; do
    awk -v test="$(test_file "$path")" "$tail_rules"'
        /^[[:space:]]*\/\// { next }
        {
            line = $0
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                print (test ? "test" : "code"), substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
            }
        }' "$path"
done |
    awk -v defs="$defs" '
        { seen[$1, $2]++ }
        END {
            while ((getline line < defs) > 0) {
                split(line, f, " ")
                defined[f[3], f[1]]++
                at[++n] = f[2]
                name[n] = f[1]
                where[n] = f[3]
            }
            for (i = 1; i <= n; i++) {
                k = name[i]
                uses = seen["code", k] + seen["test", k] - defined["code", k] - defined["test", k]
                if (uses <= 0) {
                    print at[i] "\t" k
                    listed++
                }
            }
            printf "unused pub fns: %d of %d\n", listed + 0, n
            for (i = 1; i <= n; i++) {
                if (where[i] != "code") {
                    continue
                }
                k = name[i]
                code_uses = seen["code", k] - defined["code", k]
                test_uses = seen["test", k] - defined["test", k]
                outside_tests++
                if (code_uses <= 0 && test_uses > 0) {
                    print at[i] "\t" k
                    test_only++
                }
            }
            printf "pub fns only tests name: %d of %d\n", test_only + 0, outside_tests + 0
        }'
