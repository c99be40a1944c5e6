//! Stackful coroutine primitive for the executor: separately mapped stacks
//! plus a hand-rolled callee-saved context switch.
//!
//! A suspended task is nothing but a stack and one saved stack pointer;
//! everything else (callee-saved registers, return address) lives *on*
//! that stack, exactly where [`switch_stacks`] pushed it. Resuming is the
//! mirror image: load the saved stack pointer, pop the registers, `ret`.
//! This is the classic boost.context / libaco design, reduced to the one
//! architecture this workspace targets (x86-64 SysV); on any other the
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
//! 10k+ mostly-idle tasks cost virtual address space, not resident memory.

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "gbcr-des has a coroutine stack switch (`coro::switch_stacks`, `coro::init_stack`) \
     for x86-64 only: simulated processes cannot run on this architecture until one is written"
);

use std::alloc::{handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Stack memory as a private anonymous mapping of its own, never carved
/// from the malloc heap: pages are committed only when touched, and
/// freeing a stack gives every page it dirtied straight back. (A freed
/// heap-carved stack leaves its few dirty pages resident, and the next
/// simulation's stacks land at other offsets and dirty fresh ones —
/// measured as +40 % peak RSS over back-to-back 1 024-rank jobs.)
#[cfg(target_os = "linux")]
mod mem {
    use std::ffi::c_void;

    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Null on failure. The mapping is page-aligned and zero-filled.
    pub(super) fn map(size: usize) -> *mut u8 {
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing.
        let p = unsafe {
            mmap(std::ptr::null_mut(), size, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        if p as isize == -1 {
            std::ptr::null_mut()
        } else {
            p.cast()
        }
    }

    /// # Safety
    /// `(base, size)` must be exactly one live mapping returned by [`map`].
    pub(super) unsafe fn unmap(base: *mut u8, size: usize) {
        // SAFETY: per the contract; nothing references the range any more.
        let rc = unsafe { munmap(base.cast(), size) };
        debug_assert_eq!(rc, 0, "munmap of a coroutine stack failed");
    }
}

#[cfg(not(target_os = "linux"))]
mod mem {
    use std::alloc::{alloc, dealloc};

    pub(super) fn map(size: usize) -> *mut u8 {
        // SAFETY: `size` is at least `Stack::MIN_SIZE`, so non-zero.
        unsafe { alloc(super::Stack::layout(size)) }
    }

    /// # Safety
    /// `(base, size)` must be exactly one live allocation returned by [`map`].
    pub(super) unsafe fn unmap(base: *mut u8, size: usize) {
        // SAFETY: allocated with the identical layout in `map`.
        unsafe { dealloc(base, super::Stack::layout(size)) };
    }
}

/// A coroutine stack. The low end carries a canary word so overflow (the
/// stack grows *down*, towards the canary) is detected at the next slice
/// boundary instead of silently corrupting a neighbour.
pub(crate) struct Stack {
    base: NonNull<u8>,
    size: usize,
}

impl Stack {
    const CANARY: u64 = 0xDEAD_BEEF_CA11_57AC;

    /// Minimum size we accept; smaller requests are rounded up. Below
    /// this even the entry trampoline plus a panic would overflow.
    pub(crate) const MIN_SIZE: usize = 16 * 1024;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 16).expect("valid stack layout")
    }

    pub(crate) fn new(size: usize) -> Stack {
        let size = size.max(Self::MIN_SIZE) & !15usize;
        let base =
            NonNull::new(mem::map(size)).unwrap_or_else(|| handle_alloc_error(Self::layout(size)));
        // SAFETY: the region is at least MIN_SIZE and 16-aligned.
        unsafe { base.as_ptr().cast::<u64>().write(Self::CANARY) };
        Stack { base, size }
    }

    /// Where the guard word lives.
    pub(crate) fn canary_addr(&self) -> *const u8 {
        self.base.as_ptr()
    }

    /// True while the guard word at the overflow end is intact.
    pub(crate) fn canary_ok(&self) -> bool {
        // SAFETY: base points at our own live region.
        unsafe { self.base.as_ptr().cast::<u64>().read() == Self::CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `(base, size)` is what `mem::map` returned in `new`.
        unsafe { mem::unmap(self.base.as_ptr(), self.size) };
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
    // SAFETY: the eight slots lie inside the allocation (size >=
    // MIN_SIZE >> 64 bytes) and are 16-aligned by construction.
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

#[cfg(all(test, target_os = "linux"))]
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
        let stacks: Vec<Stack> = (0..32).map(|_| Stack::new(MIB)).collect();
        for s in &stacks {
            // SAFETY: the whole `size`-byte region is ours and writable;
            // the canary word at offset 0 is left alone.
            unsafe { s.base.as_ptr().add(8).write_bytes(0xA5, s.size - 8) };
            assert!(s.canary_ok());
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
