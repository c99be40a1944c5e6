//! Stackful coroutine primitive for the executor: separately mapped stacks,
//! reused within a thread, plus a hand-rolled callee-saved context switch.
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
//! stack leaks nothing, and the next task handed it reads nothing of the
//! last one ([`init_stack`] forges a fresh frame at the top); and a task
//! cell is not `Send` (see [`crate::pool`]), so a context is only ever
//! entered by the one thread that drives its simulation — the thread whose
//! free list its stack came from and goes back to.
//!
//! A stack is mapped once per thread, not once per process: a finished
//! task's [`Stack`] goes on its thread's free list, and the thread's next
//! new task takes it. Pages are committed only when touched, so 10k+
//! mostly-idle tasks cost virtual address space, not resident memory: a
//! parked coroutine that never ran deep keeps one page of a fresh stack,
//! its top. A reused stack keeps every page an earlier user touched, so a
//! thread's resident stack memory is at most its peak of live stacks,
//! each as deep as the deepest task that ever ran on it.
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

use crate::pool::STACK_BYTES;
use std::cell::RefCell;
use std::ffi::c_void;
use std::io;
use std::ptr::NonNull;

// The three calls a stack's life takes, with their Linux flag values, and
// the one that tells the main thread, whose id is the process's.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn gettid() -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

thread_local! {
    /// This thread's finished stacks, the one freed last on top. It never
    /// holds more than the thread's peak of live stacks; dropped at thread
    /// exit, it unmaps them, except on the main thread (see [`Stack`]'s
    /// `Drop`).
    static SPARE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// A coroutine stack of [`STACK_BYTES`]: a private anonymous mapping of
/// its own whose lowest page, the guard, is `PROT_NONE`. It is never carved
/// from the malloc heap, so pages are committed only when touched. A
/// dropped stack goes on its thread's free list with its guard and its
/// resident pages, and [`Stack::new`] hands it to the thread's next task:
/// the kernel maps, guards and unmaps a stack once per thread, not once per
/// task. The guard splits the mapping in two, so every stack, live or
/// spare, costs two of the kernel's `vm.max_map_count` mappings (65 530 by
/// default: about 32 k stacks per host process).
pub(crate) struct Stack {
    base: NonNull<u8>,
}

// Whole pages, with room above the guard for the entry trampoline and a
// panic.
const _: () = assert!(STACK_BYTES.is_multiple_of(Stack::GUARD) && STACK_BYTES >= 16 * 1024);

impl Stack {
    /// The guard's size: one x86-64 page.
    const GUARD: usize = 4096;

    /// The stack this thread freed last, else a fresh mapping with its
    /// guard page. The error is the OS's: `ENOMEM` from `mmap` when the
    /// address space is exhausted, or from `mprotect` when the guard would
    /// exceed `vm.max_map_count`.
    pub(crate) fn new() -> io::Result<Stack> {
        // The borrow lasts for the pop alone, never across a switch.
        if let Some(stack) = SPARE.try_with(|spare| spare.borrow_mut().pop()).ok().flatten() {
            return Ok(stack);
        }
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing.
        let p = unsafe {
            mmap(std::ptr::null_mut(), STACK_BYTES, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        if p as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the first page of the mapping just made, which nothing
        // references yet.
        if unsafe { mprotect(p, Self::GUARD, PROT_NONE) } != 0 {
            let e = io::Error::last_os_error();
            // SAFETY: the unguarded mapping just made, which nothing
            // references: it must not become a spare.
            unsafe { munmap(p, STACK_BYTES) };
            return Err(e);
        }
        // A mapping at a kernel-chosen address never starts at zero.
        Ok(Stack { base: NonNull::new(p.cast()).expect("mmap returned null") })
    }
}

impl Drop for Stack {
    /// Onto the thread's free list; unmapped only once the list itself is
    /// gone — when the list, dropped at thread exit, drops its stacks. The
    /// main thread's list goes only as the process exits, and there the
    /// kernel takes the whole address space at once.
    fn drop(&mut self) {
        let base = self.base;
        let kept = SPARE.try_with(|spare| spare.borrow_mut().push(Stack { base })).is_ok();
        // SAFETY: gettid has no preconditions and cannot fail.
        if !kept && unsafe { gettid() } as u32 != std::process::id() {
            // SAFETY: `(base, STACK_BYTES)` is the mapping `new` made;
            // nothing references the range any more.
            let rc = unsafe { munmap(base.as_ptr().cast(), STACK_BYTES) };
            debug_assert_eq!(rc, 0, "munmap of a coroutine stack failed");
        }
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
    let top = (stack.base.as_ptr() as usize + STACK_BYTES) & !15usize;
    // Eight slots below the (16-aligned) top, mirroring the pop
    // sequence of `switch_stacks` plus its `ret`:
    //   sp+0  r15      sp+24 r12 (task)   sp+48 ret -> trampoline
    //   sp+8  r14      sp+32 rbx          sp+56 pad (entry alignment)
    //   sp+16 r13      sp+40 rbp
    let sp = top - 8 * 8;
    let s = sp as *mut usize;
    // SAFETY: the eight slots lie inside the top page, which is writable
    // (STACK_BYTES > GUARD + 64 bytes), and are 16-aligned by construction.
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
