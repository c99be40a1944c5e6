#!/usr/bin/env bash
# The per-layer wall ledger: where `gbcr scale`'s host time goes, by crate.
#
#   scripts/ledger.sh SIZES [RUNS]        e.g. scripts/ledger.sh 1024,4096 3
#
# Builds `gbcr` with frame pointers into its own target directory
# (target/ledger, so the ordinary build is left alone) and the sigprof
# sampler beside it, runs `gbcr scale --sizes N --threads 1` RUNS times
# (default 3) under the sampler for each N in the comma-separated SIZES,
# and prints for each size the ledger row — every sample charged to the
# crate of its nearest `gbcr_*` frame (`symbolise.py --by-crate`) — and the
# shares of the gate path and of libc's allocator. The sampler takes about
# 250 samples per CPU-second; the dumps stay in target/ledger/dumps.
set -euo pipefail
cd "$(dirname "$0")/.."

sizes=${1:?usage: scripts/ledger.sh SIZES [RUNS]}
runs=${2:-3}
dir=target/ledger

RUSTFLAGS=-Cforce-frame-pointers=yes CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  CARGO_TARGET_DIR=$dir cargo build --release -q -p gbcr-bench
gcc -O2 -shared -fPIC -o $dir/sigprof.so scripts/sigprof/sigprof.c
mkdir -p $dir/dumps

# The gate path (ROADMAP item 7): the coordinator's broadcasts and
# collections, the ranks' listeners and gate step, and every out-of-band
# delivery — the boxed closure `Link::try_send` posted at an `OobMsg`
# before posts carried a key, the connection's `land` and `deliver` since.
gate='CoordBody|on_oob_arrival|oob_arrival|gate_step'
gate+='|(try_send::\{closure_env#0\}|land|deliver)<gbcr_mpi::hook::OobMsg>'
# libc's allocator: its exported entry points, and its internals, which
# have no symbol of their own and print after `__default_morecore`.
alloc='^(__libc_)?(malloc|calloc|realloc|free)$|^cfree$|after __default_morecore'

for n in ${sizes//,/ }; do
  rm -f $dir/dumps/"$n".*.raw
  for _ in $(seq "$runs"); do
    LD_PRELOAD=$PWD/$dir/sigprof.so SIGPROF_OUT=$dir/dumps/$n \
      $dir/release/gbcr scale --sizes "$n" --threads 1 > /dev/null
  done
  echo "== $n ranks, $runs runs =="
  python3 scripts/sigprof/symbolise.py $dir/dumps/"$n".*.raw --top 0 --by-crate \
    --match "$gate" --match "$alloc" \
    | awk '/^== samples with a frame matching/ { m = 1; next }
           /^== by crate/ { m = 0; c = 1 }
           m && NF { printf "%s %7s  %s\n", $1, $2, ++i == 1 ? "gate path" : "libc malloc/free" }
           c'
done
