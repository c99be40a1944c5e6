//! Coroutine stacks at the OS level: every stack is a mapping whose lowest
//! page is a `PROT_NONE` guard. A parked process keeps one resident page,
//! running past the stack dies by SIGSEGV instead of writing into the
//! stack mapped below, and a stack the kernel refuses to map is a typed
//! `SimError`, not an abort.
//!
//! The last two need a process of their own: the test re-runs its own
//! binary on just itself, with `CHILD` set, and judges how that child
//! ended.

use gbcr_des::{time, Sim, SimError};
use std::cell::RefCell;
use std::ffi::c_void;
use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output};
use std::rc::Rc;

/// The size of every coroutine stack mapping, guard page included
/// (`STACK_BYTES` in `crates/des/src/pool.rs`).
const STACK_BYTES: usize = 1 << 20;
const PAGE: usize = 4096;
/// Set in a child run: the test named by `--exact` does the dangerous
/// half instead of spawning.
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
            Mapping { start: hex(start), end: hex(end), perms: fields.next().expect("perms").into() }
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

/// Re-run this test binary on the one test `name`, in child mode, with
/// its output captured.
fn run_child(name: &str) -> Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("spawn the child test run")
}

fn in_child() -> bool {
    std::env::var_os(CHILD).is_some()
}

/// A parked process that never ran deep keeps exactly one stack page
/// resident, its top; the guard page never is.
#[test]
fn a_parked_stack_keeps_one_resident_page() {
    const N: usize = 64;
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
    });
}

/// Recursing a little past the stack, with another process's stack mapped
/// directly below, faults on the guard page: the process dies by SIGSEGV
/// at the first touch instead of writing into its neighbour.
#[test]
fn running_past_the_stack_dies_by_sigsegv() {
    const NAME: &str = "running_past_the_stack_dies_by_sigsegv";
    if !in_child() {
        let out = run_child(NAME);
        assert_eq!(
            out.status.signal(),
            Some(11),
            "child did not die by SIGSEGV: {:?}\nstdout:\n{}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
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
        let (above_guard, below_guard) = (guard_of(&maps, addrs[0]), guard_of(&maps, addrs[1]));
        assert_eq!(
            below_guard + STACK_BYTES,
            above_guard,
            "the second stack is not mapped directly below the first"
        );
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
    const NAME: &str = "an_unmappable_stack_is_a_typed_error";
    if !in_child() {
        let out = run_child(NAME);
        assert!(
            out.status.success(),
            "child failed: {:?}\nstdout:\n{}\nstderr:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
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
