#!/usr/bin/env bash
# Public-API surface snapshot gate.
#
# Extracts a grep-derived listing of every `pub` item declaration line in
# the workspace crates (fn/struct/enum/trait/mod/use/const/type/static),
# normalizes it (path-prefixed, whitespace-collapsed, bodies and
# terminators stripped), and diffs it against the committed snapshot at
# tests/data/api_surface.txt.
#
# The point is review friction, not precision: an API change — a renamed
# builder method, a new public type, a widened re-export — must show up as
# a one-line diff in the same PR that made it, so the surface can never
# drift unreviewed. Multi-line signatures are captured by their first line
# only; that is deliberate, a first-line change is what a rename or an
# arity change produces, and the snapshot stays stable under rustfmt.
#
# Usage:
#   scripts/api_surface.sh            print the current surface to stdout
#   scripts/api_surface.sh --check    diff against the snapshot (CI gate)
#   scripts/api_surface.sh --update   rewrite the snapshot after review
set -euo pipefail

cd "$(dirname "$0")/.."
SNAPSHOT="tests/data/api_surface.txt"

generate() {
    # Crate sources only: shims/ vendors third-party code and src/ is the
    # facade crate; tests and benches have no public surface to pin.
    grep -rn --include='*.rs' -E '^\s*pub (fn|struct|enum|trait|mod|use|const|type|static|union)\b' \
        crates/*/src src/*.rs \
        | sed -E 's|^([^:]+):[0-9]+:[[:space:]]*|\1: |; s/[[:space:]]+/ /g; s/ \{.*$//; s/;.*$//; s/ $//' \
        | LC_ALL=C sort
}

# Per-crate item counts, e.g. "dsms 86, serve 71, ..., facade 12" — the
# surface is a metric that should go down, so every CI log shows where it
# stands.
per_crate() {
    sed -E 's|^crates/([^/]+)/.*|\1|; s|^src/.*|facade|' "$1" | sort | uniq -c \
        | awk '{printf "%s%s %d", sep, $2, $1; sep=", "} END {print ""}'
}

case "${1:-}" in
    "")
        generate
        ;;
    --check)
        if ! diff -u "$SNAPSHOT" <(generate); then
            echo >&2
            echo "api_surface: public API surface changed without a snapshot update." >&2
            echo "api_surface: review the diff above, then run: scripts/api_surface.sh --update" >&2
            exit 1
        fi
        echo "api_surface: surface matches $SNAPSHOT ($(wc -l < "$SNAPSHOT") items: $(per_crate "$SNAPSHOT"))"
        ;;
    --update)
        mkdir -p "$(dirname "$SNAPSHOT")"
        generate > "$SNAPSHOT"
        echo "api_surface: wrote $(wc -l < "$SNAPSHOT") items to $SNAPSHOT"
        ;;
    *)
        echo "usage: scripts/api_surface.sh [--check|--update]" >&2
        exit 2
        ;;
esac
