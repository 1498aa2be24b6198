//! The C allocator's settings for the run, and the live heap it reports.
//!
//! [`fix_thresholds`] sets glibc's mmap threshold to 32 MiB and turns heap
//! trimming off, a common setting for HPC codes. With glibc's defaults the
//! mmap threshold moves with the order in which large blocks happen to be
//! freed, so one run served the same 512 KiB blocks from fresh mappings
//! and the next from the heap; and every fresh mapping or trimmed heap page
//! is touched again through the page-fault path, which on a virtual
//! machine that hands freed guest pages back to its host costs whatever
//! the host's load makes it cost. With the thresholds fixed, a 9 s run of
//! `insitu-ipca` took about 80,000 page faults instead of 400,000, and a
//! `stream-tcp` run about 14,000 instead of anywhere from 15,000 to
//! 230,000.
//!
//! [`live_mib`] reads the live heap from the C allocator (`mallinfo2`):
//! bytes in chunks handed out of its arenas plus bytes in chunks it mapped
//! on their own. Unlike the resident set (`VmHWM`), it leaves out memory
//! the allocator keeps after a free and does not depend on how threads
//! spread over its arenas, so the same work reads about the same on every
//! run. It is read rather than counted per allocation: the kernels of
//! `insitu-ipca` allocate about 25 million times a second, and a counting
//! allocator slowed them by 5–70%.

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's largest mmap threshold on 64-bit targets.
pub const MMAP_THRESHOLD: i32 = 32 << 20;

/// Fix the allocator's thresholds for the whole run. Call it before any
/// thread starts, so that every allocation of the run sees them.
pub fn fix_thresholds() -> Result<(), String> {
    // SAFETY: `mallopt` takes two integers, touches no memory of ours and
    // takes the allocator's own locks.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if ok {
        Ok(())
    } else {
        Err("mallopt refused the allocator thresholds".into())
    }
}

/// Bytes the program holds on the heap right now, in MiB.
pub fn live_mib() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}
