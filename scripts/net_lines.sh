#!/usr/bin/env bash
# Net non-test line count of the working tree against a base revision.
#
# Counts non-blank lines of the Rust sources under crates/, src/ and
# examples/, leaving out tests/, benches/ and vendor/ directories and,
# in every file, everything from its first `#[cfg(test)]` line on.
# Prints the base count, the current count and the difference. A
# report, not a gate: it exits non-zero only when it cannot read the
# base revision.
#
# Usage: scripts/net_lines.sh <base-rev>
#   e.g. scripts/net_lines.sh "$(git merge-base HEAD origin/main)"
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
base="$1"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "net_lines: unknown revision '$base'" >&2
    exit 2
}
cd "$(git rev-parse --show-toplevel)"

# Keeps the counted paths from a list of repository paths on stdin.
counted() {
    grep -E '^(crates|src|examples)/.*\.rs$' | grep -Ev '(^|/)(tests|benches|vendor)/' || true
}

# Non-blank lines of stdin before its first `#[cfg(test)]`. It reads
# to the end, so the writer of the pipe never meets a closed pipe.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 } !cut && NF { n++ } END { print n + 0 }'
}

base_total=0
while IFS= read -r path; do
    base_total=$((base_total + $(git show "$base:$path" | count)))
done < <(git ls-tree -r --name-only "$base" | counted)

# Tracked files plus new ones not yet added, as they are on disk.
head_total=0
while IFS= read -r path; do
    [ -f "$path" ] || continue
    head_total=$((head_total + $(count <"$path")))
done < <(git ls-files --cached --others --exclude-standard | sort -u | counted)

echo "net non-test lines: base $base_total, now $head_total, net $((head_total - base_total))"
