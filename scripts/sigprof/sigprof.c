/* sigprof.c - a SIGPROF stack sampler to LD_PRELOAD into a Rust binary.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so SIGPROF_OUT=/tmp/prof ./target/release/gbcr ...
 *   python3 symbolise.py /tmp/prof.<pid>.raw
 *
 * Every millisecond of CPU time (ITIMER_PROF; the kernel rounds it to its
 * tick) the handler records the interrupted pc and walks the frame-pointer
 * chain, so the target must be built with
 * RUSTFLAGS=-Cforce-frame-pointers=yes (the precompiled std already is).
 * Nothing is symbolised in process: at exit the raw addresses and
 * /proc/self/maps go to $SIGPROF_OUT.<pid>.raw (default ./sigprof) and
 * symbolise.py does the rest.
 *
 * Why it looks like this:
 *  - The handler runs on a sigaltstack: the interrupted thread may be on a
 *    coroutine stack, which belongs to the simulated process.
 *  - Frames are read with process_vm_readv on our own pid, so a frame
 *    pointer that is not one (a leaf without a frame, hand-written
 *    assembly such as switch_stacks, a foreign library) makes the read fail
 *    with EFAULT and ends the walk instead of crashing the target.
 *  - The walk follows the chain onto whatever stack it leads: a sample
 *    taken inside a coroutine ends at the coroutine's entry frame, whose
 *    saved rbp is the zero init_stack planted.
 *  - Samples go into a fixed static buffer; when it is full, later samples
 *    are counted as dropped. The handler allocates nothing and takes no
 *    lock. One thread is assumed to do the work worth sampling (the
 *    simulator's driving thread); samples from other threads are recorded
 *    too, racing only on the cursor, which is advanced atomically.
 *
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define BUF_WORDS (8u << 20) /* 64 MB of address space, touched as filled */
#define ALT_STACK_BYTES (64 * 1024)

/* A sample is one word holding its depth, then that many addresses,
 * innermost first. */
static uint64_t buf[BUF_WORDS];
static volatile uint64_t cursor, samples, dropped;
static pid_t self_pid;
static char alt_stack[ALT_STACK_BYTES];

static int read_frame(uint64_t fp, uint64_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)fp, 16};
    return process_vm_readv(self_pid, &local, 1, &remote, 1, 0) == 16;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    const ucontext_t *uc = ctx;
    uint64_t stack[MAX_DEPTH];
    unsigned depth = 0;
    stack[depth++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
    while (depth < MAX_DEPTH && fp != 0 && (fp & 7) == 0) {
        uint64_t frame[2]; /* saved rbp, return address */
        if (!read_frame(fp, frame) || frame[1] == 0)
            break;
        stack[depth++] = frame[1];
        if (frame[0] == fp)
            break;
        fp = frame[0];
    }
    uint64_t at = __atomic_fetch_add(&cursor, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 <= BUF_WORDS) {
        buf[at] = depth;
        memcpy(&buf[at + 1], stack, depth * sizeof stack[0]);
        __atomic_fetch_add(&samples, 1, __ATOMIC_RELAXED);
    } else {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    }
    errno = saved_errno;
}

__attribute__((constructor)) static void sigprof_start(void) {
    self_pid = getpid();
    /* Installed before the Rust runtime starts, which keeps an alternate
     * stack it finds already in place. */
    stack_t ss = {.ss_sp = alt_stack, .ss_size = sizeof alt_stack, .ss_flags = 0};
    sigaltstack(&ss, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sigprof_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (getpid() != self_pid)
        return; /* a forked child that never exec'd: not ours to report */
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.raw", prefix ? prefix : "sigprof", (int)self_pid);
    FILE *out = fopen(path, "w");
    if (!out) {
        fprintf(stderr, "sigprof: cannot write %s: %s\n", path, strerror(errno));
        return;
    }
    fprintf(out, "# sigprof samples=%llu dropped=%llu\n", (unsigned long long)samples,
            (unsigned long long)dropped);
    uint64_t end = cursor < BUF_WORDS ? cursor : BUF_WORDS;
    for (uint64_t at = 0; at < end;) {
        uint64_t depth = buf[at++];
        if (depth == 0)
            continue; /* the gap a dropped sample left */
        if (at + depth > end)
            break;
        for (uint64_t i = 0; i < depth; i++)
            fprintf(out, i ? " %llx" : "%llx", (unsigned long long)buf[at + i]);
        fputc('\n', out);
        at += depth;
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
    fprintf(stderr, "sigprof: %llu samples (%llu dropped) -> %s\n", (unsigned long long)samples,
            (unsigned long long)dropped, path);
}
