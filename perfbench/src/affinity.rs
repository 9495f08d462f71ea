//! Pins load threads to CPUs.
//!
//! Left to the scheduler, two threads that wake each other (the handoff
//! producer and consumer) share a CPU for stretches of a run and have one
//! each for others, and threads that do not are migrated now and then; both
//! show as modes in the samples. Each workload says where its threads run.

/// Words in the kernel's CPU mask as glibc declares it (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `n`th CPU it may run on (wrapping round if
/// there are fewer). Returns false, leaving the thread as it was, where the
/// kernel refuses; the run is then merely noisier.
pub fn pin_to_nth_cpu(n: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most the `size_of_val(&mask)` bytes it is
    // told about; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, core::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let allowed: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(cpu) = allowed.get(n % allowed.len().max(1)) else {
        return false;
    };
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: reads `size_of_val(&one)` bytes of a mask naming one allowed CPU.
    unsafe { sched_setaffinity(0, core::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_may_run_on_exactly_one_cpu() {
        std::thread::spawn(|| {
            if !pin_to_nth_cpu(1) {
                return; // not permitted here; nothing to check
            }
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: as in `pin_to_nth_cpu`.
            assert_eq!(
                unsafe { sched_getaffinity(0, core::mem::size_of_val(&mask), mask.as_mut_ptr()) },
                0
            );
            assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        })
        .join()
        .unwrap();
    }
}
