#!/usr/bin/env bash
# Public functions that nothing else names.
#
# Lists every `pub fn` under crates/*/src whose name appears on no other
# line of the Rust sources under crates/, src/, tests/, examples/,
# tools/ and dreambench/src. Comment lines do not count as a use. A
# name any other code line carries as a word counts as used, so a
# common name (`new`, `len`) is never listed: the report can miss dead
# code, and a listed name may still be reached through a trait or a
# macro, which the reader checks. A report, not a gate: it exits
# non-zero only when it cannot read the tree.
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

defs=$(mktemp)
trap 'rm -f "$defs"' EXIT
sources | grep -E '^crates/[^/]+/src/' | while IFS= read -r path; do
    awk -v path="$path" '
        match($0, /^[[:space:]]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
            print name, path ":" FNR
        }' "$path"
done >"$defs"

# Word counts over every code line, then one line per definition whose
# name occurs only on definition lines.
sources | while IFS= read -r path; do cat "$path"; done |
    grep -Ev '^[[:space:]]*//' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' |
    awk -v defs="$defs" '
        { seen[$0]++ }
        END {
            while ((getline line < defs) > 0) {
                split(line, f, " ")
                defined[f[1]]++
                at[++n] = f[2]
                name[n] = f[1]
            }
            for (i = 1; i <= n; i++) {
                if (seen[name[i]] <= defined[name[i]]) {
                    print at[i] "\t" name[i]
                    listed++
                }
            }
            printf "unused pub fns: %d of %d\n", listed + 0, n
        }'
