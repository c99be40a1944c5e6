#!/usr/bin/env bash
# The line counts every CHANGES.md / ROADMAP.md entry quotes, always
# computed the same way: physical lines (`wc -l`, comments and blanks
# included) of the `.rs` files under each root. Then two field counts:
# `knobs`, the `pub` fields of the configuration structs below plus the
# fields of `Formation::Dynamic` — every value a caller can set
# independently; and `report fields`, the `pub` fields of the run reports
# below — every value a run hands back. A struct that no longer exists
# counts 0, so each list stays fixed and its number stays comparable
# across changes. Last, `panic sites`: the lines of `crates/*/src` that can
# end a run by panic (an `.unwrap()`, `.expect(` or `panic!(`), doc
# comments and everything from a file's first `#[cfg(test)]` on left out.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

KNOB_STRUCTS="MpiConfig NetConfig StorageConfig LocalCrConfig JobSpec CoordinatorCfg
  PhaseDeadlines ElectionCfg ReplicatedCfg SupervisePolicy StochasticFaults FaultConfig
  TornWrites ClusterSpec TenantPolicy"

REPORT_STRUCTS="RunReport TenantReport ClusterReport SupervisedReport Attempt
  RecoveryCounters ElectionStats"

# One `pub name:` line per field at struct-body indentation of the structs
# named in $1, and, when $2 is 1, one `name:` line per field of the
# `Dynamic { .. }` variant.
fields() {
  awk -v names="$1" -v dynamic="$2" '
    BEGIN { n = split(names, a, /[ \n]+/); for (i = 1; i <= n; i++) want[a[i]] = 1 }
    /^pub struct [A-Za-z]+ \{/ { s = want[$3] ? $3 : ""; next }
    s != "" && /^\}/ { s = ""; next }
    s != "" && /^    pub [a-z_0-9]+:/ { count++ }
    dynamic && /^pub enum Formation \{/ { f = 1; next }
    f && /^\}/ { f = 0; next }
    f && /^    Dynamic \{/ { d = 1; next }
    d && /^    \}/ { d = 0; next }
    d && /^        [a-z_0-9]+:/ { count++ }
    END { print count + 0 }
  ' crates/*/src/*.rs
}

# One line per `.unwrap()`/`.expect(`/`panic!(` outside doc comments and
# test modules in the `.rs` files under the given roots.
panic_sites() {
  find "$@" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && !/^[ \t]*\/\/[\/!]/ && /\.unwrap\(\)|\.expect\(|panic!\(/ { n++ }
    END { print n + 0 }'
}

echo "crates/*/src           $(count crates/*/src)"
for c in crates/*/; do
  printf '  %-20s %s\n' "$(basename "$c")" "$(count "$c/src")"
done
echo "crates tests examples  $(count crates tests examples)"
echo "vendor                 $(count vendor)"
echo "knobs                  $(fields "$KNOB_STRUCTS" 1)"
echo "report fields          $(fields "$REPORT_STRUCTS" 0)"
echo "panic sites            $(panic_sites crates/*/src)"
