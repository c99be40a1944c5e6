#!/usr/bin/env python3
"""Symbolise a sigprof.c or heapprof.c dump and print where the samples
fell, or where the heap is.

    symbolise.py RAW... [--top N] [--match REGEX ...] [--by-crate]
    symbolise.py --heap RAW [--callers N] [--top N]
    symbolise.py --heap RAW1 RAW2 --ranks N1 N2 [--callers N] [--top N]

Several dumps (one per process or per repeated run) are added up. Three
tables, each as a share of all samples:

  self       the function whose code each sample's pc is in (the symbol:
             callees inlined into it count as it)
  inclusive  every function that appears anywhere in the sample's stack,
             inlined callees included (`addr2line -i` expands them)
  nearest    the innermost frame whose name starts with `gbcr_`: which of
             this workspace's functions the time is spent under, however
             deep into std or libc the sample itself landed

`--match` adds one line per regex: the share of samples with a frame it
matches (inclusive), the way the EXPERIMENTS.md tables count "heap frames"
or "the resume shell".

`--by-crate` adds the ledger row: each sample charged to the crate of its
nearest `gbcr_*` frame, as a share of all samples, with `none` for the
samples that have no such frame (mostly libc `malloc`/`free`).

A shared object's pc that lies outside every exported symbol (addr2line
would name it after the nearest one below) is labelled
`<lib> internal (after <sym>)`.

`--heap` reads heapprof.c dumps instead: one table of the bytes and
allocations live at the heap peak, by site, largest first. A site is a
chain's innermost `gbcr_*` frame and the line in it that leads to the
allocation, labelled with its crate; `--callers N` splits it by the N
`gbcr_*` frames around that one (which table a shared helper grows, say).
Given two dumps of one job at two
sizes and `--ranks`, it prints what each added rank costs instead: the
difference between the dumps divided by the difference in ranks, in total
and by site.

Needs only python3 and binutils' addr2line and nm; the sampled binaries must
still be where /proc/self/maps said they were.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def parse(path):
    samples, maps, in_maps = [], [], False
    for line in open(path):
        line = line.strip()
        if line == "# maps":
            in_maps = True
        elif line.startswith("#") or not line:
            continue
        elif in_maps:
            add_mapping(maps, line)
        else:
            samples.append([int(a, 16) for a in line.split()])
    return samples, maps


def parse_heap(path):
    """A heapprof.c dump: its header fields, `(bytes, count, chain)` per
    chain live at the peak, and the maps."""
    header, chains, maps, in_maps = {}, [], [], False
    for line in open(path):
        line = line.strip()
        if line.startswith("# heapprof "):
            header = dict(field.split("=") for field in line.split()[2:])
        elif line == "# maps":
            in_maps = True
        elif line.startswith("#") or not line:
            continue
        elif in_maps:
            add_mapping(maps, line)
        else:
            fields = line.split()
            chains.append((int(fields[0]), int(fields[1]), [int(a, 16) for a in fields[2:]]))
    if not header:
        sys.exit(f"{path}: not a heapprof dump")
    return header, chains, maps


def add_mapping(maps, line):
    fields = line.split(None, 5)
    if len(fields) == 6 and fields[5].startswith("/"):
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        maps.append((lo, hi, int(fields[2], 16), fields[5]))


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return struct.unpack_from("<H", header, 16)[0] == 3  # ET_DYN


def locate(maps):
    """addr -> (file, address addr2line wants), or None outside any file."""
    base = {}  # file -> where its first bytes are mapped
    for lo, _, offset, path in maps:
        if offset == 0:
            base.setdefault(path, lo)
    bias = {}  # file -> what to subtract from an address in it; None: skip

    def file_bias(path):
        if path not in bias:
            try:
                bias[path] = base[path] if is_pie(path) else 0
            except (OSError, KeyError):
                bias[path] = None
        return bias[path]

    def lookup(addr):
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                off = file_bias(path)
                return None if off is None else (path, addr - off)
        return None

    return lookup


def addr2line(path, addrs):
    """{addr: [(function, file:line), ...]} innermost (inlined) first; an
    inlined frame's line is where it calls the frame before it."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((HASH.sub("", out[i]), out[i + 1].rsplit("/", 1)[-1].split(" ")[0]))
            i += 2
    if SHARED_OBJECT.search(path):
        relabel_outside_exports(path, frames)
    return frames


SHARED_OBJECT = re.compile(r"\.so(\.[0-9]+)*$")


def relabel_outside_exports(path, frames):
    """Without debug info, addr2line names a shared object's pc after the
    nearest *exported* symbol below it, however far past that symbol's end
    the pc lies: libc's static malloc internals come out as a 0x33-byte
    `__default_morecore`, its local `memmove` variants as a 0xd-byte
    `__nss_database_lookup`. Each pc that no exported symbol's
    `[value, value + size)` covers is named `<lib> internal (after <sym>)`
    instead."""
    listing = subprocess.run(
        ["nm", "-D", "-S", "--defined-only", path],
        capture_output=True, text=True).stdout.splitlines()
    symbols = []  # (value, size, name), sorted by value
    for line in listing:
        fields = line.split()
        if len(fields) == 4:
            symbols.append((int(fields[0], 16), int(fields[1], 16), fields[3].split("@")[0]))
    if not symbols:
        return
    symbols.sort()
    values = [s[0] for s in symbols]
    widest = max(s[1] for s in symbols)
    lib = path.rsplit("/", 1)[-1]
    for addr in frames:
        below = bisect.bisect_right(values, addr)
        if not below:
            continue
        lo = bisect.bisect_left(values, addr - widest)
        if not any(addr < value + size for value, size, _ in symbols[lo:below]):
            frames[addr] = [(f"{lib} internal (after {symbols[below - 1][2]})", "??:0")]


def resolve(rows, maps, exact_first):
    """Per row of addresses (innermost first): its frames, each a list of
    `(function, file:line)` with inlined callees first. A return address
    points after its call, so it is stepped back into it; with
    `exact_first` the first address of a row is an interrupted pc, exact."""
    lookup = locate(maps)
    wanted = collections.defaultdict(set)
    located = []
    for row in rows:
        hits = [lookup(addr - (0 if exact_first and not depth else 1))
                for depth, addr in enumerate(row)]
        for hit in filter(None, hits):
            wanted[hit[0]].add(hit[1])
        located.append(hits)
    names = {path: addr2line(path, sorted(addrs)) for path, addrs in wanted.items()}
    unknown, unmapped = [("??", "??:0")], [("[unmapped]", "??:0")]
    return [[names[hit[0]].get(hit[1], unknown) if hit else unmapped for hit in hits]
            for hits in located]


def stacks(raw):
    """Per sample of `raw`: the function its pc is in, and the names of the
    whole stack, innermost (inlined) first."""
    samples, maps = parse(raw)
    for frames in resolve(samples, maps, exact_first=True):
        yield frames[0][-1][0], [f for frame in frames for f, _ in frame]


GBCR_FRAME = re.compile(r"^<?gbcr_(\w+)::")

# The ledger's columns: a crate, or the column it shares. Any other
# `gbcr_*` crate counts as `other`.
LEDGER_CRATES = {"des": "des", "net": "net", "mpi": "mpi", "core": "core",
                 "storage": "storage", "blcr": "blcr+workloads",
                 "workloads": "blcr+workloads"}


def site(frames, callers):
    """Where a heap chain comes from: its innermost `gbcr_*` frame and the
    line in it that leads to the allocation, labelled with the crate, then
    the `callers` `gbcr_*` frames around it."""
    ours = [(GBCR_FRAME.match(func), func, loc) for frame in frames for func, loc in frame]
    ours = [(layer.group(1), func, loc) for layer, func, loc in ours if layer]
    if not ours:
        return "[no gbcr_* frame]"
    (layer, func, loc), outer = ours[0], ours[1:callers + 1]
    return " <- ".join([f"{layer} · {func} ({loc})"] + [f"{f} ({l})" for _, f, l in outer])


def heap_sites(raw, callers):
    """`(header, {site: [bytes, allocations]})` at the peak of one dump."""
    header, chains, maps = parse_heap(raw)
    by_site = collections.defaultdict(lambda: [0, 0])
    for (nbytes, count, _), frames in zip(chains, resolve([c[2] for c in chains], maps, False)):
        at = by_site[site(frames, callers)]
        at[0] += nbytes
        at[1] += count
    return header, by_site


def heap_report(raws, ranks, callers, top):
    """The census table: per site, bytes and allocations live at the heap
    peak; with two dumps and their rank counts, the per-rank slope between
    them instead (what each added rank costs)."""
    dumps = [heap_sites(raw, callers) for raw in raws]
    for raw, (header, _) in zip(raws, dumps):
        print(f"{raw}: peak {int(header['peak_bytes']):,} B in "
              f"{int(header['peak_allocs']):,} allocations "
              f"({header['allocs']} allocations made, {header['dropped']} unrecorded chains)")
    if ranks:
        (h1, s1), (h2, s2) = dumps
        span = ranks[1] - ranks[0]
        rows = {k: [(s2.get(k, [0, 0])[i] - s1.get(k, [0, 0])[i]) / span for i in (0, 1)]
                for k in set(s1) | set(s2)}
        total = [(int(h2[f]) - int(h1[f])) / span for f in ("peak_bytes", "peak_allocs")]
        print(f"\nper rank, {ranks[0]} -> {ranks[1]} ranks: "
              f"{total[0]:,.0f} B in {total[1]:.1f} allocations")
        head, fmt = "  B/rank  allocs/rank  site", "{:8.0f}  {:11.2f}  {}"
    else:
        (_, rows), = dumps
        head, fmt = "       B   allocations  site", "{:8d}  {:11d}  {}"
    print(f"\n{head}")
    for key, (nbytes, count) in sorted(rows.items(), key=lambda kv: -abs(kv[1][0]))[:top]:
        print(fmt.format(nbytes, count, key))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("raw", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[], metavar="REGEX")
    ap.add_argument("--by-crate", action="store_true",
                    help="print the share of samples under each crate's nearest frame")
    ap.add_argument("--heap", action="store_true",
                    help="the dumps are heapprof.c censuses: print bytes by site")
    ap.add_argument("--ranks", type=int, nargs=2, metavar=("N1", "N2"),
                    help="with --heap and two dumps: their rank counts, for the per-rank slope")
    ap.add_argument("--callers", type=int, default=0, metavar="N",
                    help="with --heap: name a site by N more gbcr_* frames around it")
    args = ap.parse_args()
    if args.heap:
        if args.ranks and len(args.raw) != 2:
            sys.exit("--ranks needs exactly two dumps")
        if not args.ranks and len(args.raw) != 1:
            sys.exit("--heap takes one dump, or two with --ranks")
        heap_report(args.raw, args.ranks, args.callers, args.top)
        return

    self_, incl, nearest, crates = (collections.Counter() for _ in range(4))
    matched = collections.Counter()
    patterns = [re.compile(p) for p in args.match]
    total = 0
    for raw in args.raw:
        for leaf, funcs in stacks(raw):
            total += 1
            self_[leaf] += 1
            incl.update(set(funcs))
            near = next((f for f in funcs if f.startswith(("gbcr_", "<gbcr_"))), "[none]")
            nearest[near] += 1
            crate = GBCR_FRAME.match(near)
            crates[LEDGER_CRATES.get(crate.group(1), "other") if crate else "none"] += 1
            for p in patterns:
                if any(p.search(f) for f in funcs):
                    matched[p.pattern] += 1
    if not total:
        sys.exit("no samples")

    print(f"{total} samples from {len(args.raw)} dump(s)")
    for title, table in (("self", self_), ("inclusive", incl), ("nearest gbcr_* frame", nearest)):
        print(f"\n== {title} ==")
        for name, n in table.most_common(args.top):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")
    if patterns:
        print("\n== samples with a frame matching ==")
        for p in patterns:
            n = matched[p.pattern]
            print(f"{100 * n / total:6.2f}%  {n:7d}  {p.pattern}")
    if args.by_crate:
        columns = list(dict.fromkeys(LEDGER_CRATES.values())) + ["other", "none"]
        print("\n== by crate (nearest gbcr_* frame), % of samples ==")
        print("samples  " + "  ".join(columns))
        print(f"{total:7d}  " + "  ".join(f"{100 * crates[c] / total:{len(c)}.1f}" for c in columns))


if __name__ == "__main__":
    main()
