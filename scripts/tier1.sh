#!/usr/bin/env bash
# Tier-1 gate: the repo must build, lint and document clean, pass the whole
# test suite, and regenerate every committed result byte for byte through
# the one `gbcr` front door. ci.yml runs this on every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# One layout, pinned by rustfmt.toml: a diff that reformats what it does
# not change hides the lines it does.
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# A deleted item that a doc comment still links to is a rustdoc warning,
# and nothing else would notice it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The benchmark package must build unedited against the crates' public
# surface (a removed report field breaks it), and against its own
# lockfile as committed.
(cd benchmark && cargo check --offline --locked -q)
cargo test --release --workspace -q
# Release builds compile `debug_assert!` and integer overflow checks out.
# The event queue's invariants (time never goes backwards, a run's seqs are
# consecutive, runs leave in key order) are `debug_assert!`s, and the
# processor-sharing engine's `u64`/`Time` arithmetic is checked only for
# overflow; MotifMiner's merge asserts its shards are sorted, and its
# kernels' support sums must wrap on purpose, not by accident of the
# profile; so is the fault plans' time and rank arithmetic. The helper
# thread's wake registration (`gbcr_mpi::DemandWake`) asserts its anchor
# is never in the future and that it is never armed twice, and
# `Mpi::set_passive` that it is never called with it armed. The fabric's
# wire store asserts that each direction of a connection lands its
# messages in the order they were sent. The engine's, the fabric's, the
# MPI runtime's, the storage model's, the workloads' and the fault model's
# own suites, with the differential queue test and the kernels'
# benchmark-shape test, run once more in the debug profile.
cargo test -q -p gbcr-des -p gbcr-net -p gbcr-mpi -p gbcr-storage -p gbcr-workloads -p gbcr-faults

gbcr() { cargo run --release -q -p gbcr-bench -- "$@"; }
fail() { echo "tier1: $*" >&2; exit 1; }

# A simulation is single-threaded and its types say so: the engine's state
# and everything built on it below `gbcr-core` is Rc/RefCell/Cell, one
# thread drives it, and nothing in it may promise or take a second thread
# (process-wide atomics aside). Doc comments are skipped: a `compile_fail`
# doctest names `thread::spawn` to prove a fabric cannot cross threads.
sim_crates=(crates/{des,trace,net,storage,blcr,mpi,faults}/src)
! grep -rnE 'unsafe impl|Mutex|Condvar|\bArc\b|thread::(spawn|Builder)' "${sim_crates[@]}" \
    | grep -vE '^[^:]+:[0-9]+:\s*//[/!]' \
  || fail "a simulation crate shares state across threads (lines above)"
# Nothing is configured through the environment: every value is a flag, a
# config field or a constant.
! grep -rn 'env::var' crates/*/src \
  || fail "crates/*/src reads an environment variable (lines above)"
# The settable configuration holds its size (`knobs`, scripts/loc.sh). A
# new option is a design decision, not a side effect: it raises this bound
# in a change of its own, with the reason in CHANGES.md.
knobs=$(scripts/loc.sh | awk '$1 == "knobs" { print $2 }')
[ "$knobs" -le 52 ] || fail "knobs is $knobs, above the bound of 52"
# Every protocol mutant still applies to the tree: a change that moves a
# mutant's lines re-bases its patch, rather than leaving the mutant job
# (scripts/mutants.sh) to abort after its baseline run.
for patch in scripts/mutants/*.patch; do
  git apply --check "$patch" 2>/dev/null || fail "mutant $patch no longer applies"
done

# The paper evaluation on one worker is bench_results.txt ...
gbcr all --threads 1 | diff - bench_results.txt \
  || fail "'gbcr all --threads 1' is not bench_results.txt"
# ... and on the default worker count too (line 1 carries the count):
# the parallel harness must be invisible in every table.
gbcr all | tail -n +2 | diff - <(tail -n +2 bench_results.txt) \
  || fail "'gbcr all' on the default worker count is not bench_results.txt"

# The six seeded smokes (node kills, replicated recovery, protocol abort,
# trace export, coordinator failover, multi-tenant interference) print
# their golden lines; each is fully deterministic in its seed, and what a
# line pins is documented on the function that computes it. gbcr exits
# non-zero if the exported trace fails validation. Its node kills end
# simulated processes without a word: a kill is no panic, so nothing may
# reach stderr.
gbcr smoke --trace target/trace_smoke.json 2> target/smoke.err \
  | diff - scripts/tier1_smoke.golden \
  || fail "'gbcr smoke' diverged from scripts/tier1_smoke.golden"
[ ! -s target/smoke.err ] || fail "'gbcr smoke' wrote to stderr: $(head -n 3 target/smoke.err)"
grep -q '"traceEvents"' target/trace_smoke.json \
  || fail "exported trace missing traceEvents array"

# The extension studies keep their committed numbers.
(gbcr fig 8; gbcr fig 9; gbcr fig 10; gbcr taxonomy) | diff - extension_results.txt \
  || fail "fig 8/9/10 or taxonomy diverged from extension_results.txt"

# Scale smoke: 256- and 1024-rank group-vs-cluster runs under a hard wall
# budget (the local run takes ~2 s; the budget catches executor-overhead
# regressions, not CI jitter), with the delays scale_results.txt records.
timeout 60 cargo run --release -q -p gbcr-bench -- scale --smoke > target/scale_smoke.out \
  || fail "scale smoke failed or blew its 60 s wall budget"
grep -Eq "scale check: max_ranks=1024 host_cores=[0-9]+ monotone_reduction=true" \
  target/scale_smoke.out || fail "scale smoke diverged from golden: $(tail -1 target/scale_smoke.out)"
diff <(sed -n 4,5p target/scale_smoke.out) <(sed -n 4,5p scale_results.txt) \
  || fail "scale smoke delays are not the 256/1024 rows of scale_results.txt"
# Its cost rows' exact columns too (ranks, events, messages, callbacks,
# procs; wall and spawn times are host time): callbacks count every delivery
# on either fabric, so they carry the coordinator's n^2/g gate traffic,
# which dispatch steps no longer show and no benchmark metric counts.
counts() { sed -n "$1" "$2" | awk '{ print $1, $3, $4, $5, $6 }'; }
diff <(counts 10,11p target/scale_smoke.out) <(counts 12,13p scale_results.txt) \
  || fail "scale smoke counts are not the 256/1024 cost rows of scale_results.txt"
# And the order of every action the event loop took at those sizes: the
# dispatch fingerprints of each size's three runs, summed.
prints() { grep '^scale fingerprints:' "$2" | tr ' ' '\n' | grep -E "^($1)="; }
diff <(prints '256|1024' target/scale_smoke.out) <(prints '256|1024' scale_results.txt) \
  || fail "scale smoke fingerprints are not the 256/1024 ones of scale_results.txt"
echo "tier1: OK"
