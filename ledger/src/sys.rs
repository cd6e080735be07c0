//! CPU placement: the one thing the benchmark needs from the kernel
//! that std does not expose. The only `unsafe` in this package.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now
/// on — to `cpus`. Returns whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    // cpqx-analyze: allow(unsafe-allowlist): std has no affinity call; one audited FFI call, benchmark-only
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes, which is the size passed; pid 0 names the calling thread;
    // the call reads the mask and writes no memory of ours.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}
