//! Coroutine stacks at the OS level: every stack is a mapping whose lowest
//! page is a `PROT_NONE` guard, and a finished process's stack serves the
//! thread's next one. A parked process on a fresh stack keeps one resident
//! page, running past the stack dies by SIGSEGV instead of writing into the
//! stack mapped below — on a reused stack too — a stack the kernel refuses
//! to map is a typed `SimError`, not an abort, back-to-back simulations map
//! no new stack, and a thread's spare stacks are unmapped when it exits.
//!
//! All but the first need a process of their own, since they look at the
//! whole process (its signals, address-space limit, mappings or peak
//! resident memory): the test re-runs its own binary on just itself, with
//! `CHILD` set, and judges how that child ended.

use gbcr_des::{time, Sim, SimError};
use std::cell::RefCell;
use std::ffi::c_void;
use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::rc::Rc;

/// The size of every coroutine stack mapping, guard page included
/// (`STACK_BYTES` in `crates/des/src/pool.rs`).
const STACK_BYTES: usize = 1 << 20;
const PAGE: usize = 4096;
/// Set in a child run: the test named by `--exact` does its work instead
/// of spawning.
const CHILD: &str = "GBCR_DES_STACK_CHILD";

extern "C" {
    fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
    fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
}
const RLIMIT_AS: i32 = 9;
const ENOMEM: i32 = 12;

/// One line of `/proc/self/maps`: `[start, end)` and the permissions.
struct Mapping {
    start: usize,
    end: usize,
    perms: String,
}

fn mappings() -> Vec<Mapping> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let range = fields.next().expect("address range");
            let (start, end) = range.split_once('-').expect("start-end");
            let hex = |s| usize::from_str_radix(s, 16).expect("hex address");
            Mapping {
                start: hex(start),
                end: hex(end),
                perms: fields.next().expect("perms").into(),
            }
        })
        .collect()
}

/// The start of the guard page under the stack that holds `addr`: the
/// stack's read-write part must contain `addr` and sit directly on a
/// one-page `PROT_NONE` mapping, and `addr` (a local of the first slice)
/// must lie in the stack's top page.
fn guard_of(maps: &[Mapping], addr: usize) -> usize {
    let i = maps.iter().position(|m| (m.start..m.end).contains(&addr)).expect("addr is mapped");
    assert_eq!(maps[i].perms, "rw-p", "the stack holding {addr:#x} is not private read-write");
    let guard = &maps[i - 1];
    assert!(
        guard.end == maps[i].start && guard.perms == "---p" && guard.end - guard.start == PAGE,
        "no one-page PROT_NONE guard directly below the stack holding {addr:#x}"
    );
    assert!(
        (guard.start + STACK_BYTES - PAGE..guard.start + STACK_BYTES).contains(&addr),
        "{addr:#x} is not in the top page of a {STACK_BYTES}-byte mapping at {:#x}",
        guard.start
    );
    guard.start
}

/// One flag per page of the stack mapping at `guard`: resident or not.
fn resident_pages(guard: usize) -> Vec<bool> {
    let mut vec = vec![0u8; STACK_BYTES / PAGE];
    // SAFETY: `[guard, guard + STACK_BYTES)` is one live stack mapping and
    // `vec` holds a byte per page of it; mincore only writes `vec`.
    let rc = unsafe { mincore(guard as *mut c_void, STACK_BYTES, vec.as_mut_ptr()) };
    assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
    vec.iter().map(|v| v & 1 == 1).collect()
}

/// The address of a local in the calling frame: on a coroutine, a point
/// near the top of its stack.
#[inline(never)]
fn stack_addr() -> usize {
    let here = 0u8;
    black_box(&here) as *const u8 as usize
}

/// `n` processes each record their stack and park; a host-side callback
/// then looks at every stack while all of them are parked, and wakes them.
fn with_parked_stacks(n: usize, look: impl FnOnce(&[usize]) + 'static) {
    let mut sim = Sim::new(1);
    let addrs = Rc::new(RefCell::new(Vec::with_capacity(n)));
    let pids: Vec<_> = (0..n)
        .map(|i| {
            let addrs = addrs.clone();
            sim.spawn(format!("p{i}"), move |p| {
                addrs.borrow_mut().push(stack_addr());
                p.park();
            })
        })
        .collect();
    sim.handle().call_at(time::ms(1), move |h| {
        look(&addrs.borrow());
        for pid in pids {
            h.wake(pid);
        }
    });
    sim.run().expect("every process woken and finished");
}

/// Where a test that needs a process of its own splits: in the parent,
/// re-run this test binary on the one test `name` in child mode, check that
/// the child died by `signal` (or passed, for `None`) and return `false`;
/// in the child, return `true`, and the test does its work.
fn in_child(name: &str, signal: Option<i32>) -> bool {
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("spawn the child test run");
    let ended = match signal {
        Some(sig) => out.status.signal() == Some(sig),
        None => out.status.success(),
    };
    assert!(
        ended,
        "child did not end by {}: {:?}\nstdout:\n{}\nstderr:\n{}",
        signal.map_or("passing".into(), |s| format!("signal {s}")),
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Run `f` on a thread of its own, which starts with no spare stacks, and
/// pass its panic on.
fn on_a_new_thread(f: impl FnOnce() + Send + 'static) {
    if let Err(panic) = std::thread::spawn(f).join() {
        std::panic::resume_unwind(panic);
    }
}

/// The number of mappings the process has.
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("procfs").lines().count()
}

/// The process's peak resident memory so far, in kB.
fn vm_hwm_kb() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).expect("VmHWM line");
    line.trim().trim_end_matches("kB").trim().parse().expect("VmHWM value")
}

/// At least 1 KiB of frame per level, every byte of it written.
fn dive(depth: usize) -> usize {
    let mut frame = [0u8; 1024];
    black_box(&mut frame);
    if depth == 0 {
        0
    } else {
        dive(depth - 1) + usize::from(frame[1])
    }
}

/// `n` processes each dirty about 16 KiB of their stack and sleep 1 ms, so
/// all of them are live at once, then finish.
fn run_deepish(n: usize) {
    let mut sim = Sim::new(1);
    for i in 0..n {
        sim.spawn(format!("p{i}"), |p| {
            black_box(dive(16));
            p.sleep(time::ms(1));
        });
    }
    sim.run().expect("every process finished");
}

/// A parked process that never ran deep keeps exactly one page of a fresh
/// stack resident, its top; the guard page never is. The processes run on
/// a new thread, which has no spare stacks, so every stack is fresh.
#[test]
fn a_parked_stack_keeps_one_resident_page() {
    const N: usize = 64;
    on_a_new_thread(|| {
        with_parked_stacks(N, |addrs| {
            assert_eq!(addrs.len(), N, "not every process parked before the look");
            let maps = mappings();
            for &addr in addrs {
                let pages = resident_pages(guard_of(&maps, addr));
                assert!(!pages[0], "the guard page of the stack at {addr:#x} is resident");
                let resident: Vec<usize> = (0..pages.len()).filter(|&i| pages[i]).collect();
                assert_eq!(
                    resident,
                    [pages.len() - 1],
                    "stack holding {addr:#x}: resident pages other than its top"
                );
            }
        })
    });
}

/// Recursing a little past the stack, with another process's stack mapped
/// directly below, faults on the guard page: the process dies by SIGSEGV
/// at the first touch instead of writing into its neighbour.
#[test]
fn running_past_the_stack_dies_by_sigsegv() {
    if in_child("running_past_the_stack_dies_by_sigsegv", Some(11)) {
        overflow_onto_the_stack_below(None);
    }
}

/// The same on a reused stack: the guard is set once, when a stack is
/// first mapped, and a stack handed from one process to the next keeps it.
#[test]
fn running_past_a_reused_stack_dies_by_sigsegv() {
    if !in_child("running_past_a_reused_stack_dies_by_sigsegv", Some(11)) {
        return;
    }
    // Two processes map two stacks, the second directly below the first,
    // dirty 64 KiB of each, and finish second first, which leaves the first
    // on top of the spares.
    let mut sim = Sim::new(1);
    let addrs = Rc::new(RefCell::new(Vec::new()));
    for (i, ms) in [(0, 2), (1, 1)] {
        let addrs = addrs.clone();
        sim.spawn(format!("first{i}"), move |p| {
            addrs.borrow_mut().push(stack_addr());
            black_box(dive(64));
            p.sleep(time::ms(ms));
        });
    }
    sim.handle().call_at(time::us(1), {
        let addrs = addrs.clone();
        move |_| {
            let maps = mappings();
            let guards = addrs.borrow().iter().map(|&a| guard_of(&maps, a)).collect();
            *addrs.borrow_mut() = guards;
        }
    });
    sim.run().expect("both first processes finished");
    drop(sim);
    let guards = addrs.borrow().clone();
    overflow_onto_the_stack_below(Some([guards[0], guards[1]]));
}

/// Run `above` past its stack onto the stack of `below`, mapped directly
/// under it; `reused` names the two stacks' guards when both must be
/// spares an earlier simulation left, each still holding the pages its
/// earlier user dirtied (a fresh mapping at the same address would not).
fn overflow_onto_the_stack_below(reused: Option<[usize; 2]>) -> ! {
    let mut sim = Sim::new(1);
    let addrs = Rc::new(RefCell::new(Vec::new()));
    let record = |addrs: &Rc<RefCell<Vec<usize>>>| {
        let addrs = addrs.clone();
        move |p: &gbcr_des::Proc| {
            addrs.borrow_mut().push(stack_addr());
            p.park();
        }
    };
    let above = {
        let park = record(&addrs);
        sim.spawn("above", move |p| {
            park(p);
            black_box(dive(STACK_BYTES / 1024 + 64));
            p.park();
        })
    };
    let below = sim.spawn("below", record(&addrs));
    sim.handle().call_at(time::ms(1), move |h| {
        let addrs = addrs.borrow();
        let maps = mappings();
        let guards = [guard_of(&maps, addrs[0]), guard_of(&maps, addrs[1])];
        assert_eq!(
            guards[1] + STACK_BYTES,
            guards[0],
            "the second stack is not mapped directly below the first"
        );
        if let Some(spares) = reused {
            assert_eq!(guards, spares, "the processes did not get the earlier simulation's stacks");
            for guard in guards {
                let resident = resident_pages(guard).iter().filter(|&&r| r).count();
                assert!(
                    resident > 16,
                    "the stack at {guard:#x} is fresh: {resident} resident pages"
                );
            }
        }
        h.wake(above);
        h.wake(below);
    });
    let result = sim.run();
    panic!("the overflowing process came back: {result:?}");
}

/// A stack the kernel refuses to map — here because the address-space
/// limit leaves no room for it — ends the run with
/// `SimError::StackMapFailed`, naming the process and the errno.
#[test]
fn an_unmappable_stack_is_a_typed_error() {
    // The child's thread has run no simulation, so it has no spare stack.
    if !in_child("an_unmappable_stack_is_a_typed_error", None) {
        return;
    }
    let mut sim = Sim::new(1);
    sim.spawn("starved", |p| p.sleep(time::ms(1)));
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let vm_size_kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line");
    let mut limit = [0u64; 2];
    // SAFETY: `limit` is the `struct rlimit` (two u64s) getrlimit fills.
    assert_eq!(unsafe { getrlimit(RLIMIT_AS, &mut limit) }, 0);
    // Room for the scheduler's small allocations, none for a stack.
    let lowered = [(vm_size_kb * 1024 + STACK_BYTES / 4) as u64, limit[1]];
    // SAFETY: lowers this process's soft limit only; restored below.
    assert_eq!(unsafe { setrlimit(RLIMIT_AS, &lowered) }, 0);
    let result = sim.run();
    // SAFETY: raises the soft limit back to what it was.
    assert_eq!(unsafe { setrlimit(RLIMIT_AS, &limit) }, 0);
    let err = result.expect_err("the stack was mapped under the lowered limit");
    assert_eq!(err, SimError::StackMapFailed { name: "starved".into(), errno: ENOMEM });
    let shown = err.to_string();
    assert!(shown.contains("'starved'") && shown.contains("vm.max_map_count"), "{shown}");
}

/// Back-to-back simulations on one thread share its stacks: the second of
/// two 1 024-process runs maps no stack and commits next to no memory —
/// at most one page per stack — beyond the first's peak.
#[test]
fn back_to_back_simulations_reuse_their_stacks() {
    const N: usize = 1024;
    if !in_child("back_to_back_simulations_reuse_their_stacks", None) {
        return;
    }
    run_deepish(N);
    let (maps, hwm) = (mapping_count(), vm_hwm_kb());
    run_deepish(N);
    assert_eq!(mapping_count(), maps, "the second run changed the number of mappings");
    let grew = vm_hwm_kb() - hwm;
    assert!(grew <= N * PAGE / 1024, "peak RSS grew {grew} kB in the second run");
}

/// A thread's spare stacks go with it: once a thread that ran a
/// 64-process simulation is joined, the process has the mappings it had
/// before the thread started — as after each of `run_sweep`'s workers.
#[test]
fn a_threads_stacks_are_unmapped_when_it_exits() {
    if !in_child("a_threads_stacks_are_unmapped_when_it_exits", None) {
        return;
    }
    // The first thread leaves the C library's cached thread stack and its
    // malloc arena mapped, for the second to take over.
    on_a_new_thread(|| run_deepish(64));
    let before = mapping_count();
    on_a_new_thread(|| run_deepish(64));
    assert_eq!(mapping_count(), before, "a finished thread left mappings behind");
}
