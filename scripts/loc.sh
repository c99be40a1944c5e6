#!/usr/bin/env bash
# The three line counts every CHANGES.md / ROADMAP.md entry quotes, always
# computed the same way: physical lines (`wc -l`, comments and blanks
# included) of the `.rs` files under each root.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

echo "crates/*/src           $(count crates/*/src)"
for c in crates/*/; do
  printf '  %-20s %s\n' "$(basename "$c")" "$(count "$c/src")"
done
echo "crates tests examples  $(count crates tests examples)"
echo "vendor                 $(count vendor)"
