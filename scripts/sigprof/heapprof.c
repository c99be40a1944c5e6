/* heapprof.c - a heap census to LD_PRELOAD into a Rust binary.
 *
 *   gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o heapprof.so heapprof.c
 *   LD_PRELOAD=$PWD/heapprof.so HEAPPROF_OUT=/tmp/heap ./target/release/gbcr ...
 *   python3 symbolise.py --heap /tmp/heap.<pid>.raw
 *
 * Every malloc, calloc, realloc and aligned allocation is recorded with
 * the call chain that asked for it, walked by frame pointer, so the target
 * must be built with RUSTFLAGS=-Cforce-frame-pointers=yes (the precompiled
 * std already is). Allocations are kept per distinct chain: live bytes and
 * live count. The live set is snapshotted at each new peak of live bytes,
 * so the dump describes the heap at its high-water mark, not at exit. At
 * exit the peak totals, one line per chain that was live at the peak
 * (`bytes count addr...`, innermost first) and /proc/self/maps go to
 * $HEAPPROF_OUT.<pid>.raw (default ./heapprof); symbolise.py --heap reads
 * it.
 *
 * Why it looks like this:
 *  - The real allocator is glibc's own, reached through its __libc_*
 *    entry points, so nothing here resolves symbols or allocates.
 *  - The snapshot is exact and cheap: while live bytes sit at a new peak,
 *    the snapshot is marked stale, and the first release after it copies
 *    only the chains whose counts moved since the last snapshot.
 *  - Walking a frame pointer that is not one would crash the target. The
 *    walk reads frames directly (a syscall per frame, as sigprof.c does,
 *    would cost more than the allocation), so it only continues while
 *    each return address lies in the executable's own code, which is
 *    built with frame pointers, and while the chain climbs the stack.
 *    A call from libc or from a coroutine's entry ends the chain there.
 *  - Sizes are the sizes asked for; the allocator's own headers and
 *    rounding are not counted.
 *  - One lock guards the tables; allocations from several threads are
 *    all recorded, in whatever order the lock takes them.
 *
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MAX_DEPTH 64
#define MAX_CHAINS (1u << 20)
#define CHAIN_SLOTS (1u << 21)
#define ADDR_WORDS (1u << 25)
#define MAX_STACK_SPAN (8u << 20)

struct chain {
    uint32_t depth, start; /* addrs[start .. start + depth] */
    int64_t live_bytes, live_count;
    int64_t snap_bytes, snap_count;
    uint32_t dirty;
};

/* Live allocations: open addressing on the pointer, linear probing with
 * backward-shift deletion. `meta` is size << 24 | chain. */
struct slot {
    uint64_t ptr, meta;
};

static struct chain *chains;
static uint32_t nchains = 1; /* chain 0: no chain (before setup, or tables full) */
static uint32_t *chain_index; /* chain id + 1, 0 = empty */
static uint64_t *addrs;
static uint64_t naddrs;
static uint32_t *dirty_list;
static uint32_t ndirty;

static struct slot *live;
static uint64_t live_cap, live_len;

static int64_t live_bytes, live_count, peak_bytes, peak_count;
static uint64_t total_allocs, dropped_chains;
static int snapshot_stale, enabled;
static volatile int lock;
static uint64_t text_lo[8], text_hi[8];
static int ntext;
static pid_t self_pid;

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void take(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void give(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

static int in_text(uint64_t pc) {
    for (int i = 0; i < ntext; i++)
        if (pc >= text_lo[i] && pc < text_hi[i])
            return 1;
    return 0;
}

static uint64_t mix(uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0xff51afd7ed558ccdull;
}

/* The chain id for the caller of the interposed function whose frame is
 * `fp`, interned. */
static uint32_t chain_of(uint64_t fp) {
    uint64_t stack[MAX_DEPTH];
    uint32_t depth = 0;
    uint64_t base = fp;
    while (depth < MAX_DEPTH && fp && (fp & 7) == 0 && fp - base < MAX_STACK_SPAN) {
        const uint64_t *frame = (const uint64_t *)fp; /* saved rbp, return address */
        uint64_t ret = frame[1], next = frame[0];
        if (!ret)
            break;
        stack[depth++] = ret;
        if (!in_text(ret) || next <= fp)
            break;
        fp = next;
    }
    uint64_t h = depth;
    for (uint32_t i = 0; i < depth; i++)
        h = mix(h, stack[i]);
    for (uint32_t at = h & (CHAIN_SLOTS - 1);; at = (at + 1) & (CHAIN_SLOTS - 1)) {
        uint32_t id = chain_index[at];
        if (!id) {
            if (nchains == MAX_CHAINS || naddrs + depth > ADDR_WORDS) {
                dropped_chains++;
                return 0;
            }
            id = nchains++;
            chains[id].depth = depth;
            chains[id].start = naddrs;
            memcpy(&addrs[naddrs], stack, depth * sizeof stack[0]);
            naddrs += depth;
            chain_index[at] = id + 1;
            return id;
        }
        struct chain *c = &chains[id - 1];
        if (c->depth == depth && !memcmp(&addrs[c->start], stack, depth * sizeof stack[0]))
            return id - 1;
    }
}

static uint64_t slot_of(uint64_t ptr) { return (ptr >> 4) * 0x9e3779b97f4a7c15ull; }

static void live_put(struct slot *tab, uint64_t cap, uint64_t ptr, uint64_t meta) {
    uint64_t at = slot_of(ptr) & (cap - 1);
    while (tab[at].ptr)
        at = (at + 1) & (cap - 1);
    tab[at].ptr = ptr;
    tab[at].meta = meta;
}

static int live_grow(void) {
    uint64_t cap = live_cap ? live_cap * 2 : 1u << 16;
    struct slot *tab = map(cap * sizeof *tab);
    if (!tab)
        return 0;
    for (uint64_t i = 0; i < live_cap; i++)
        if (live[i].ptr)
            live_put(tab, cap, live[i].ptr, live[i].meta);
    if (live)
        munmap(live, live_cap * sizeof *live);
    live = tab;
    live_cap = cap;
    return 1;
}

/* Remove `ptr`; its meta, or ~0 if it is not ours. */
static uint64_t live_take(uint64_t ptr) {
    if (!live_cap)
        return ~0ull;
    uint64_t mask = live_cap - 1, at = slot_of(ptr) & mask;
    while (live[at].ptr != ptr) {
        if (!live[at].ptr)
            return ~0ull;
        at = (at + 1) & mask;
    }
    uint64_t meta = live[at].meta;
    /* Backward shift: pull later entries of the probe run into the hole. */
    for (uint64_t hole = at, next = (at + 1) & mask;; next = (next + 1) & mask) {
        if (!live[next].ptr) {
            live[hole].ptr = 0;
            break;
        }
        uint64_t home = slot_of(live[next].ptr) & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            live[hole] = live[next];
            hole = next;
        }
    }
    live_len--;
    return meta;
}

static void touch(uint32_t id, int64_t bytes, int64_t count) {
    struct chain *c = &chains[id];
    c->live_bytes += bytes;
    c->live_count += count;
    if (!c->dirty) {
        c->dirty = 1;
        dirty_list[ndirty++] = id;
    }
}

static void snapshot(void) {
    for (uint32_t i = 0; i < ndirty; i++) {
        struct chain *c = &chains[dirty_list[i]];
        c->snap_bytes = c->live_bytes;
        c->snap_count = c->live_count;
        c->dirty = 0;
    }
    ndirty = 0;
    peak_count = live_count;
    snapshot_stale = 0;
}

static void note_alloc(void *p, size_t size, uint64_t fp) {
    if (!p || !enabled)
        return;
    take();
    if (live_len * 2 >= live_cap && !live_grow()) {
        give();
        return;
    }
    uint32_t id = chain_of(fp);
    live_put(live, live_cap, (uint64_t)p, (uint64_t)size << 24 | id);
    live_len++;
    total_allocs++;
    touch(id, size, 1);
    live_bytes += size;
    live_count++;
    if (live_bytes > peak_bytes) {
        peak_bytes = live_bytes;
        snapshot_stale = 1;
    }
    give();
}

static void note_free(void *p) {
    if (!p || !enabled)
        return;
    take();
    uint64_t meta = live_take((uint64_t)p);
    if (meta != ~0ull) {
        if (snapshot_stale)
            snapshot(); /* live bytes are at their peak right now */
        int64_t size = meta >> 24;
        touch(meta & 0xffffff, -size, -1);
        live_bytes -= size;
        live_count--;
    }
    give();
}

#define CALLER_FRAME ((uint64_t)__builtin_frame_address(0))

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    note_alloc(p, n, CALLER_FRAME);
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    note_alloc(p, k * n, CALLER_FRAME);
    return p;
}

void *realloc(void *old, size_t n) {
    void *p = __libc_realloc(old, n);
    if (p || !n) {
        note_free(old);
        note_alloc(p, n, CALLER_FRAME);
    }
    return p;
}

void free(void *p) {
    note_free(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    note_alloc(p, n, CALLER_FRAME);
    return p;
}

void *aligned_alloc(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    note_alloc(p, n, CALLER_FRAME);
    return p;
}

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    if (!p)
        return ENOMEM;
    note_alloc(p, n, CALLER_FRAME);
    *out = p;
    return 0;
}

/* The executable's code: where a return address must lie for the walk to
 * trust the frame it came from. Read with raw syscalls, before anything
 * is recorded. */
static void find_text(void) {
    char exe[4096], maps[1 << 16];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return;
    exe[n] = 0;
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0)
        return;
    ssize_t len = 0, got;
    while (len < (ssize_t)sizeof maps - 1 && (got = read(fd, maps + len, sizeof maps - 1 - len)) > 0)
        len += got;
    close(fd);
    maps[len] = 0;
    for (char *line = maps; *line && ntext < 8;) {
        char *end = strchr(line, '\n');
        if (end)
            *end = 0;
        unsigned long lo, hi;
        char perms[8];
        char *path = strchr(line, '/');
        if (path && !strcmp(path, exe) && sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 &&
            perms[2] == 'x') {
            text_lo[ntext] = lo;
            text_hi[ntext++] = hi;
        }
        if (!end)
            break;
        line = end + 1;
    }
}

__attribute__((constructor)) static void heapprof_start(void) {
    self_pid = getpid();
    find_text();
    chains = map((size_t)MAX_CHAINS * sizeof *chains);
    chain_index = map((size_t)CHAIN_SLOTS * sizeof *chain_index);
    addrs = map((size_t)ADDR_WORDS * sizeof *addrs);
    dirty_list = map((size_t)MAX_CHAINS * sizeof *dirty_list);
    enabled = chains && chain_index && addrs && dirty_list && live_grow();
}

__attribute__((destructor)) static void heapprof_dump(void) {
    if (!enabled || getpid() != self_pid)
        return; /* a forked child that never exec'd: not ours to report */
    take();
    if (snapshot_stale)
        snapshot();
    enabled = 0; /* stdio below allocates */
    give();
    const char *prefix = getenv("HEAPPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.raw", prefix ? prefix : "heapprof", (int)self_pid);
    FILE *out = fopen(path, "w");
    if (!out) {
        fprintf(stderr, "heapprof: cannot write %s: %s\n", path, strerror(errno));
        return;
    }
    fprintf(out, "# heapprof peak_bytes=%lld peak_allocs=%lld allocs=%llu chains=%u dropped=%llu\n",
            (long long)peak_bytes, (long long)peak_count, (unsigned long long)total_allocs,
            nchains, (unsigned long long)dropped_chains);
    for (uint32_t id = 0; id < nchains; id++) {
        const struct chain *c = &chains[id];
        if (!c->snap_count)
            continue;
        fprintf(out, "%lld %lld", (long long)c->snap_bytes, (long long)c->snap_count);
        for (uint32_t i = 0; i < c->depth; i++)
            fprintf(out, " %llx", (unsigned long long)addrs[c->start + i]);
        fputc('\n', out);
    }
    fputs("# maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
    fprintf(stderr, "heapprof: peak %lld bytes in %lld allocations (%llu chains) -> %s\n",
            (long long)peak_bytes, (long long)peak_count, (unsigned long long)nchains, path);
}
