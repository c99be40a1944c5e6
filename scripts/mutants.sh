#!/usr/bin/env bash
# The protocol-mutant suite: the test suite must kill every deliberate
# fault committed under scripts/mutants/.
#
#   scripts/mutants.sh [PATCH...]       default: every scripts/mutants/*.patch
#
# Each patch is one hunk that breaks one claim DESIGN.md makes; its first
# line says which, and DESIGN.md §7 names the test that kills it. The
# script copies the working tree's files (uncommitted edits included) to a
# scratch directory, checks that the unmutated suite passes there, then for
# each patch applies it, runs `cargo test --release --workspace
# --no-fail-fast` under a time limit and takes it out again. Every run
# shares one target directory (target/mutants), so a mutant rebuilds only
# the crate its hunk touches and what depends on it; each run's output
# stays in target/mutants/logs. A mutant is killed when the suite fails to
# build, fails or times out, and its line names the tests that failed
# (`binary::test`). The last line is `killed k/n`, after every survivor is
# named; the exit status is 1 if any mutant survived. A survivor is a
# finding: it gets a new test or an EXPERIMENTS.md entry, and is never
# deleted to get a clean score.
set -euo pipefail
cd "$(dirname "$0")/.."

limit=900 # seconds per suite run
patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(scripts/mutants/*.patch)
target=$PWD/target/mutants
mkdir -p "$target/logs"
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
# Tracked and untracked-but-not-ignored files; one deleted but not yet
# staged is skipped. The copies are stamped now (`-m`): with the files' own
# times, cargo would count a crate built from an earlier run's last mutant
# as fresh.
git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xmf - -C "$copy"

# Run the suite in the copy; log to target/mutants/logs/$1.log.
suite() {
  (cd "$copy" && CARGO_TARGET_DIR=$target timeout "$limit" \
    cargo test --release --workspace --no-fail-fast) > "$target/logs/$1.log" 2>&1
}

# What stopped a failed run: the failing tests, each named once after its
# test binary (the crate for unit tests, the file for integration tests) —
# a test that fails in a child process of its own shows the child's
# FAILED line too — the first three and a count of the rest; else a build
# error or the limit.
why() {
  local log=$target/logs/$1.log
  if grep -q ' \.\.\. FAILED$' "$log"; then
    awk '/^ +Running /{ bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
         / \.\.\. FAILED$/ && !seen[bin "::" $2]++ && ++n <= 3 { printf "%s%s::%s", (n > 1 ? " " : ""), bin, $2 }
         END { if (n > 3) printf " (+%d more)", n - 3 }' "$log"
  elif grep -q '^error\[' "$log"; then
    echo "a build error"
  else
    echo "the time limit or a crash (see $log)"
  fi
}

if ! suite baseline; then
  echo "mutants: the unmutated suite fails; see $target/logs/baseline.log" >&2
  exit 2
fi

killed=0
survivors=()
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  patch=$(realpath "$patch")
  (cd "$copy" && git apply "$patch")
  if suite "$name"; then
    survivors+=("$name")
    printf 'SURVIVED %-32s %s\n' "$name" "$(head -n 1 "$patch")"
  else
    killed=$((killed + 1))
    printf 'killed   %-32s by %s\n' "$name" "$(why "$name")"
  fi
  (cd "$copy" && git apply -R "$patch")
done

[ ${#survivors[@]} -eq 0 ] || echo "survivors: ${survivors[*]}"
echo "killed $killed/${#patches[@]}"
[ ${#survivors[@]} -eq 0 ]
