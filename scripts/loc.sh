#!/usr/bin/env bash
# The line counts every CHANGES.md / ROADMAP.md entry quotes, always
# computed the same way: physical lines (`wc -l`, comments and blanks
# included) of the `.rs` files under each root. Then `knobs`: the `pub`
# fields of the configuration structs below plus the fields of
# `Formation::Dynamic` — every value a caller can set independently. A
# struct that no longer exists counts 0, so the list stays fixed and the
# number stays comparable across changes.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

KNOB_STRUCTS="MpiConfig NetConfig StorageConfig LocalCrConfig JobSpec CoordinatorCfg
  PhaseDeadlines ElectionCfg ReplicatedCfg SupervisePolicy StochasticFaults FaultConfig
  TornWrites ClusterSpec TenantPolicy"

# One `pub name:` line per field at struct-body indentation, and one
# `name:` line per field of the `Dynamic { .. }` variant.
knobs() {
  awk -v names="$KNOB_STRUCTS" '
    BEGIN { n = split(names, a, /[ \n]+/); for (i = 1; i <= n; i++) want[a[i]] = 1 }
    /^pub struct [A-Za-z]+ \{/ { s = want[$3] ? $3 : ""; next }
    s != "" && /^\}/ { s = ""; next }
    s != "" && /^    pub [a-z_0-9]+:/ { count++ }
    /^pub enum Formation \{/ { f = 1; next }
    f && /^\}/ { f = 0; next }
    f && /^    Dynamic \{/ { d = 1; next }
    d && /^    \}/ { d = 0; next }
    d && /^        [a-z_0-9]+:/ { count++ }
    END { print count + 0 }
  ' crates/*/src/*.rs
}

echo "crates/*/src           $(count crates/*/src)"
for c in crates/*/; do
  printf '  %-20s %s\n' "$(basename "$c")" "$(count "$c/src")"
done
echo "crates tests examples  $(count crates tests examples)"
echo "vendor                 $(count vendor)"
echo "knobs                  $(knobs)"
