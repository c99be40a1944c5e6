#!/usr/bin/env bash
# Tier-1 gate: the repo must build, lint clean, pass the whole test suite,
# and regenerate a smoke-sized evaluation whose tables are byte-identical
# on 1 worker and on N (`make_all --serial-check`), then pass the scale
# smoke and the seeded fault / failover / multi-tenant / trace smokes
# against their goldens. ci.yml runs this on every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo test --release --workspace -q
cargo run --release -p gbcr-bench --bin make_all -- \
  --smoke --serial-check --json target/BENCH_smoke.json \
  > target/make_all_smoke.out 2> target/make_all_smoke.err
cat target/make_all_smoke.err >&2

# Assert the 1-vs-N-workers identity pass actually ran (a silent skip must
# not count as a pass). make_all prints check progress on stderr, hence
# the .err capture above.
grep -q "serial check: tables byte-identical" target/make_all_smoke.err || {
  echo "tier1: 1-vs-N-workers identity check did not run:" >&2
  tail -5 target/make_all_smoke.err >&2
  exit 1
}

# Scale smoke: 256- and 1024-rank group-vs-cluster runs under a hard wall
# budget (the local run takes ~4 s; the budget catches executor-overhead
# regressions, not CI jitter).
timeout 60 cargo run --release -p gbcr-bench --bin scale -- --smoke \
  > target/scale_smoke.out || {
  echo "tier1: scale smoke failed or blew its 60 s wall budget:" >&2
  tail -20 target/scale_smoke.out >&2
  exit 1
}
grep -Eq "scale check: max_ranks=1024 peak_exec_threads=[0-9]+ executor=(pooled|threaded) host_cores=[0-9]+ monotone_reduction=true" \
  target/scale_smoke.out || {
  echo "tier1: scale smoke diverged from golden:" >&2
  cat target/scale_smoke.out >&2
  exit 1
}

# Fault-injection smoke: a seeded 4-rank run under stochastic node kills
# must detect the failures, restart from checkpoints, finish, and land on
# the golden attempt count (the scenario is fully deterministic in its
# seed, so any drift in the kill/detect/restart path changes the count).
cargo run --release -p gbcr-bench --bin fig8 -- --smoke > target/fig8_smoke.out
grep -qx "fig8 smoke: attempts=4 failures=3" target/fig8_smoke.out || {
  echo "tier1: fault-injection smoke diverged from golden:" >&2
  cat target/fig8_smoke.out >&2
  exit 1
}

# Replicated-backend kill/recovery smoke: the same seeded 4-rank
# stochastic-kill cell, run under the central and the diskless
# peer-replicated backend against identical failure draws. The golden
# line pins the recovery split (the dead rank's replacement reads its
# image from a remote replica, the survivors restore node-locally), the
# replica fan-out volume, and that the replicated restart storm beats the
# shared central array's.
cargo run --release -p gbcr-bench --bin fig8 -- --replicated-smoke \
  > target/fig8_replicated_smoke.out
grep -qx "fig8 replicated smoke: attempts=2 failures=1 local=3 remote=1 replica_writes=120 faster_recovery=true" \
  target/fig8_replicated_smoke.out || {
  echo "tier1: replicated kill/recovery smoke diverged from golden:" >&2
  cat target/fig8_replicated_smoke.out >&2
  exit 1
}

# Mid-protocol straggler smoke: rank 2 stalls 8 s entering its epoch-1
# checkpoint, the coordinator's group deadline trips, the epoch aborts and
# retries, and the run must complete with per-rank results byte-identical
# to the fault-free run (the abort path may never corrupt application
# state). Fully deterministic in its seed.
cargo run --release -p gbcr-bench --bin fig8 -- --abort-smoke > target/fig8_abort_smoke.out
grep -qx "fig8 abort smoke: aborts=1 retries=1 manifests=2 results_match=true" \
  target/fig8_abort_smoke.out || {
  echo "tier1: protocol-abort smoke diverged from golden:" >&2
  cat target/fig8_abort_smoke.out >&2
  exit 1
}

# Coordinator-kill failover smoke: the coordinator's node dies 3.5 s into
# a seeded 8-rank run, the lowest-ranked standby wins the term-2 election,
# aborts the half-open epoch, re-forms groups over the survivors and
# finishes in place — zero supervisor restarts, per-rank results
# byte-identical to the fault-free run. Fully deterministic in its seed.
cargo run --release -p gbcr-bench --bin fig9 -- --smoke > target/fig9_smoke.out
grep -qx "fig9 smoke: terms=2 migrations=1 supervisor_restarts=0 results_match=true" \
  target/fig9_smoke.out || {
  echo "tier1: coordinator-kill failover smoke diverged from golden:" >&2
  cat target/fig9_smoke.out >&2
  exit 1
}

# Multi-tenant interference smoke: 32 two-rank tenants admitted into one
# cluster simulation, aligned cluster-wide checkpointing vs group-based
# staggering against identical workloads and shared-array demand. The
# golden line pins the headline contrast (staggering keeps P99 epoch
# latency bounded and goodput high while alignment piles 64 concurrent
# PS streams onto the array). Fully deterministic in its seed.
cargo run --release -p gbcr-bench --bin fig10 -- --smoke > target/fig10_smoke.out
grep -qx "fig10 smoke: tenants=32 p99_clusterwide_ms=107.0 p99_group_ms=24.6 goodput_clusterwide=0.900 goodput_group=0.967 peak_streams=64/1" \
  target/fig10_smoke.out || {
  echo "tier1: multi-tenant interference smoke diverged from golden:" >&2
  cat target/fig10_smoke.out >&2
  exit 1
}

# Trace smoke: the traced 4-rank run must export schema-valid
# Chrome/Perfetto JSON with properly nested spans, all five coordinator
# protocol phases covered by the epoch span, and connection/storage
# activity present (the binary exits non-zero on any failed check).
cargo run --release -p gbcr-bench --bin fig8 -- --trace target/trace_smoke.json \
  > target/trace_smoke.out
grep -q "fig8 trace smoke: spans=.* phases_ok=true net_ok=true storage_ok=true nested=true" \
  target/trace_smoke.out || {
  echo "tier1: trace smoke failed validation:" >&2
  cat target/trace_smoke.out >&2
  exit 1
}
# The exported file itself must be parseable JSON with a traceEvents array.
grep -q '"traceEvents"' target/trace_smoke.json || {
  echo "tier1: exported trace missing traceEvents array" >&2
  exit 1
}
echo "tier1: OK"
