//! Stackful coroutine primitive for the executor: separately mapped stacks
//! plus a hand-rolled callee-saved context switch.
//!
//! A suspended task is nothing but a stack and one saved stack pointer;
//! everything else (callee-saved registers, return address) lives *on*
//! that stack, exactly where [`switch_stacks`] pushed it. Resuming is the
//! mirror image: load the saved stack pointer, pop the registers, `ret`.
//! This is the classic boost.context / libaco design, reduced to the one
//! target this workspace runs on (x86-64 SysV Linux); on any other the
//! crate does not build.
//!
//! Safety model in one paragraph: a coroutine's entry function
//! ([`crate::pool::task_entry`]) wraps the user closure in
//! `catch_unwind`, so no unwind can ever cross the switch frames; the
//! final switch out of a finished task happens only after every value
//! with a destructor on that stack has been dropped, so abandoning the
//! stack leaks nothing; and a task cell is not `Send` (see
//! [`crate::pool`]), so a context is only ever entered by the one thread
//! that drives its simulation. Stacks are uncommitted until touched, so
//! 10k+ mostly-idle tasks cost virtual address space, not resident memory:
//! a parked coroutine that never ran deep keeps one page, its top.
//!
//! Overflow is caught by the hardware: the lowest page of every stack
//! mapping is `PROT_NONE`, so the first touch past the stack kills the
//! process with SIGSEGV at the faulting instruction. A SIGSEGV whose
//! address lies in the lowest page of a coroutine mapping therefore means
//! "raise `STACK_BYTES`" (`crates/des/src/pool.rs`).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "gbcr-des has a coroutine stack switch (`coro::switch_stacks`, `coro::init_stack`) \
     and guard-paged stacks (`coro::Stack`) for x86-64 Linux only: simulated processes \
     cannot run on this target until both are written"
);

use std::ffi::c_void;
use std::io;
use std::ptr::NonNull;

// The three calls a stack's life takes, with their Linux flag values.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// A coroutine stack: a private anonymous mapping of its own whose lowest
/// page, the guard, is `PROT_NONE`. It is never carved from the malloc
/// heap: pages are committed only when touched, and freeing a stack gives
/// every page it dirtied straight back. (A freed heap-carved stack leaves
/// its few dirty pages resident, and the next simulation's stacks land at
/// other offsets and dirty fresh ones — measured as +40 % peak RSS over
/// back-to-back 1 024-rank jobs.) The guard splits the mapping in two, so
/// every live stack costs two of the kernel's `vm.max_map_count` mappings
/// (65 530 by default: about 32 k live stacks per host process).
pub(crate) struct Stack {
    base: NonNull<u8>,
    size: usize,
}

impl Stack {
    /// The guard's size: one x86-64 page.
    const GUARD: usize = 4096;

    /// Minimum size we accept, guard included; smaller requests are
    /// rounded up. Below this even the entry trampoline plus a panic would
    /// overflow.
    pub(crate) const MIN_SIZE: usize = 16 * 1024;

    /// Map a stack of `size` bytes (at least [`Stack::MIN_SIZE`], rounded
    /// up to whole pages), the guard page among them. The error is the
    /// OS's: `ENOMEM` from `mmap` when the address space is exhausted, or
    /// from `mprotect` when the guard would exceed `vm.max_map_count`.
    pub(crate) fn new(size: usize) -> io::Result<Stack> {
        let size = size.max(Self::MIN_SIZE).next_multiple_of(Self::GUARD);
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing.
        let p = unsafe {
            mmap(std::ptr::null_mut(), size, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        if p as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // A mapping at a kernel-chosen address never starts at zero.
        let stack = Stack { base: NonNull::new(p.cast()).expect("mmap returned null"), size };
        // SAFETY: the first page of the mapping just made, which nothing
        // references yet.
        if unsafe { mprotect(p, Self::GUARD, PROT_NONE) } != 0 {
            // The error is read before `stack` drops and unmaps.
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `(base, size)` is the mapping `new` made; nothing
        // references the range any more.
        let rc = unsafe { munmap(self.base.as_ptr().cast(), self.size) };
        debug_assert_eq!(rc, 0, "munmap of a coroutine stack failed");
    }
}

/// Swap stacks: push the SysV callee-saved registers onto the current
/// stack, store the resulting `rsp` through `save`, load a new `rsp`
/// from `load`, pop the registers the other context pushed (or that
/// [`init_stack`] forged), and `ret` into it.
///
/// # Safety
/// `save` must be a valid slot to store the suspended context's stack
/// pointer; `load` must hold a stack pointer previously produced by
/// this function or by [`init_stack`], on a stack that is not
/// currently executing on any thread.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch_stacks(save: *mut usize, load: *const usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Ask for the cache line holding `p` ahead of its first use.
#[inline(always)]
pub(crate) fn prefetch(p: *const u8) {
    // SAFETY: a prefetch is a hint: it reads nothing the program can
    // observe and cannot fault, whatever `p` is (SSE is part of the
    // x86-64 baseline, so the instruction always exists).
    unsafe { core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast()) }
}

/// First landing pad of a fresh coroutine: [`init_stack`] plants this
/// as the `ret` target with the task pointer in `r12`. Realigns the
/// stack for the SysV call and enters the (never-returning) Rust
/// entry.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!(
        "sub rsp, 8",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym crate::pool::task_entry,
    )
}

/// Forge an initial context on `stack` so that the first
/// [`switch_stacks`] into it "returns" into [`trampoline`] with
/// `task` in `r12`. Returns the stack-pointer value to switch to.
///
/// # Safety
/// `stack` must outlive every switch into the returned context;
/// `task` must stay valid for the coroutine's whole life.
pub(crate) unsafe fn init_stack(stack: &Stack, task: *const ()) -> usize {
    let top = (stack.base.as_ptr() as usize + stack.size) & !15usize;
    // Eight slots below the (16-aligned) top, mirroring the pop
    // sequence of `switch_stacks` plus its `ret`:
    //   sp+0  r15      sp+24 r12 (task)   sp+48 ret -> trampoline
    //   sp+8  r14      sp+32 rbx          sp+56 pad (entry alignment)
    //   sp+16 r13      sp+40 rbp
    let sp = top - 8 * 8;
    let s = sp as *mut usize;
    // SAFETY: the eight slots lie inside the top page, which is writable
    // (size >= MIN_SIZE > GUARD + 64 bytes), and are 16-aligned by
    // construction.
    unsafe {
        s.add(0).write(0);
        s.add(1).write(0);
        s.add(2).write(0);
        s.add(3).write(task as usize);
        s.add(4).write(0);
        s.add(5).write(0);
        s.add(6).write(trampoline as *const () as usize);
        s.add(7).write(0);
    }
    sp
}

#[cfg(test)]
mod tests {
    use super::Stack;

    fn vm_rss_kb() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:")).expect("VmRSS line");
        line.trim().trim_end_matches("kB").trim().parse().expect("VmRSS value")
    }

    /// Dropping a stack returns the pages it dirtied to the OS at once —
    /// what keeps peak RSS flat over back-to-back large simulations.
    #[test]
    fn dropped_stacks_give_their_pages_back() {
        const MIB: usize = 1 << 20;
        let stacks: Vec<Stack> = (0..32).map(|_| Stack::new(MIB).expect("map a stack")).collect();
        for s in &stacks {
            // SAFETY: everything above the guard page is ours and writable.
            unsafe { s.base.as_ptr().add(Stack::GUARD).write_bytes(0xA5, s.size - Stack::GUARD) };
        }
        let dirty = vm_rss_kb();
        drop(stacks);
        let after = vm_rss_kb();
        assert!(
            dirty.saturating_sub(after) >= 16 * 1024,
            "32 MiB of dirtied stacks dropped, VmRSS only went {dirty} -> {after} kB"
        );
    }
}
