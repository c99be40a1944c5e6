#!/usr/bin/env python3
"""Symbolise a sigprof.c dump and print where the samples fell.

    symbolise.py RAW... [--top N] [--match REGEX ...]

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

A shared object's pc that lies outside every exported symbol (addr2line
would name it after the nearest one below) is labelled
`<lib> internal (after <sym>)`.

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
            fields = line.split(None, 5)
            if len(fields) == 6 and fields[5].startswith("/"):
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
        else:
            samples.append([int(a, 16) for a in line.split()])
    return samples, maps


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
    """{addr: [function, ...]} innermost (inlined) first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append(HASH.sub("", out[i]))
            i += 2  # function line, then file:line
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
            frames[addr] = [f"{lib} internal (after {symbols[below - 1][2]})"]


def stacks(raw):
    """Per sample of `raw`: the function its pc is in, and the names of the
    whole stack, innermost (inlined) first."""
    samples, maps = parse(raw)
    lookup = locate(maps)
    # A return address points after its call; step back into it. The
    # interrupted pc (first of a sample) is exact.
    wanted = collections.defaultdict(set)
    located = []
    for stack in samples:
        row = [lookup(addr - (1 if depth else 0)) for depth, addr in enumerate(stack)]
        for hit in filter(None, row):
            wanted[hit[0]].add(hit[1])
        located.append(row)
    names = {path: addr2line(path, sorted(addrs)) for path, addrs in wanted.items()}
    for row in located:
        frames = [names[hit[0]].get(hit[1], ["??"]) if hit else ["[unmapped]"] for hit in row]
        yield frames[0][-1], [f for frame in frames for f in frame]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("raw", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[], metavar="REGEX")
    args = ap.parse_args()

    self_, incl, nearest = (collections.Counter() for _ in range(3))
    matched = collections.Counter()
    patterns = [re.compile(p) for p in args.match]
    total = 0
    for raw in args.raw:
        for leaf, funcs in stacks(raw):
            total += 1
            self_[leaf] += 1
            incl.update(set(funcs))
            nearest[next((f for f in funcs if f.startswith(("gbcr_", "<gbcr_"))), "[none]")] += 1
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


if __name__ == "__main__":
    main()
