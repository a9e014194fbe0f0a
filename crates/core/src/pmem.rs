//! The persistent-memory programming context.
//!
//! [`Pmem`] is what workload code programs against. It plays two roles at
//! once:
//!
//! 1. **Functional memory** — a flat, byte-addressable persistent address
//!    space backed by real bytes, so data structures behave exactly as
//!    they would in NVMM (fresh memory reads as zeros).
//! 2. **Trace recorder** — every access is recorded as a line-granular
//!    [`TraceEvent`] for later replay through the timing simulator under
//!    any design.
//!
//! The persistency primitives mirror the paper's programming model:
//! `clwb` + [`Pmem::persist_barrier`] are Intel's persistency support
//! (§6.1), and [`Pmem::write_counter_atomic`] /
//! [`Pmem::counter_cache_writeback`] are the two new primitives of §4.3
//! (`CounterAtomic` variables and `counter_cache_writeback()`).

use nvmm_crypto::LineData;
use nvmm_sim::addr::{ByteAddr, LineAddr, LINE_BYTES};
use nvmm_sim::time::Time;
use nvmm_sim::trace::{Trace, TraceEvent};
use std::collections::HashMap;
use std::ops::Range;

/// Bytes reserved for each core's private persistent region.
///
/// Cores run independent workload instances on disjoint regions
/// (§6.3.2); the stride is counter-line aligned so no two cores ever
/// share a counter line.
pub const CORE_REGION_BYTES: u64 = 1 << 32; // 4 GiB of address space per core

/// The persistent-memory programming context for one core.
///
/// # Examples
///
/// ```
/// use nvmm_core::pmem::Pmem;
/// use nvmm_sim::addr::ByteAddr;
///
/// let mut pm = Pmem::for_core(0);
/// let a = pm.region().start;
/// pm.write_u64(ByteAddr(a), 42);
/// pm.clwb(ByteAddr(a), 8);
/// pm.counter_cache_writeback(ByteAddr(a), 8);
/// pm.persist_barrier();
/// assert_eq!(pm.read_u64(ByteAddr(a)), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pmem {
    mem: HashMap<LineAddr, LineData>,
    trace: Trace,
    region: Range<u64>,
}

impl Pmem {
    /// A context owning core `core`'s private region.
    pub fn for_core(core: usize) -> Self {
        let start = core as u64 * CORE_REGION_BYTES;
        Self {
            mem: HashMap::new(),
            trace: Trace::new(),
            region: start..start + CORE_REGION_BYTES,
        }
    }

    /// The byte-address range this context may touch.
    pub fn region(&self) -> Range<u64> {
        self.region.clone()
    }

    fn check_range(&self, addr: ByteAddr, len: usize) {
        assert!(
            addr.0 >= self.region.start && addr.0 + len as u64 <= self.region.end,
            "access [{:#x}, {:#x}) outside core region [{:#x}, {:#x})",
            addr.0,
            addr.0 + len as u64,
            self.region.start,
            self.region.end
        );
    }

    fn line(&self, l: LineAddr) -> LineData {
        self.mem.get(&l).copied().unwrap_or([0; 64])
    }

    /// Reads `buf.len()` bytes at `addr`, recording the demand loads.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves this core's region.
    pub fn read(&mut self, addr: ByteAddr, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let mut copied = 0;
        while copied < buf.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let line = a.line();
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(buf.len() - copied);
            self.trace.push(TraceEvent::Read { line });
            let data = self.line(line);
            buf[copied..copied + n].copy_from_slice(&data[off..off + n]);
            copied += n;
        }
    }

    /// Reads bytes without recording trace events (for checkers and
    /// assertions, not simulated behaviour).
    pub fn peek(&self, addr: ByteAddr, buf: &mut [u8]) {
        let mut copied = 0;
        while copied < buf.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(buf.len() - copied);
            let data = self.line(a.line());
            buf[copied..copied + n].copy_from_slice(&data[off..off + n]);
            copied += n;
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: ByteAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    fn write_impl(&mut self, addr: ByteAddr, bytes: &[u8], counter_atomic: bool) {
        self.check_range(addr, bytes.len());
        if counter_atomic {
            let first = addr.line();
            let last = ByteAddr(addr.0 + bytes.len() as u64 - 1).line();
            assert_eq!(
                first, last,
                "a CounterAtomic write must not span cache lines (it could not be atomic)"
            );
        }
        let mut copied = 0;
        while copied < bytes.len() {
            let a = ByteAddr(addr.0 + copied as u64);
            let line = a.line();
            let off = a.offset_in_line();
            let n = (LINE_BYTES as usize - off).min(bytes.len() - copied);
            let mut data = self.line(line);
            data[off..off + n].copy_from_slice(&bytes[copied..copied + n]);
            self.mem.insert(line, data);
            self.trace.push(TraceEvent::Write {
                line,
                data,
                counter_atomic,
            });
            copied += n;
        }
    }

    /// Stores `bytes` at `addr` (an ordinary, non-counter-atomic write).
    ///
    /// # Panics
    ///
    /// Panics if the range leaves this core's region.
    pub fn write(&mut self, addr: ByteAddr, bytes: &[u8]) {
        self.write_impl(addr, bytes, false);
    }

    /// Stores to a `CounterAtomic` variable (§4.3): under SCA the
    /// hardware persists the value and its encryption counter atomically.
    ///
    /// # Panics
    ///
    /// Panics if the write spans a cache-line boundary or leaves the
    /// core's region.
    pub fn write_counter_atomic(&mut self, addr: ByteAddr, bytes: &[u8]) {
        self.write_impl(addr, bytes, true);
    }

    /// Stores a little-endian `u64`.
    pub fn write_u64(&mut self, addr: ByteAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Stores a little-endian `u64` as a `CounterAtomic` variable.
    pub fn write_u64_counter_atomic(&mut self, addr: ByteAddr, v: u64) {
        self.write_counter_atomic(addr, &v.to_le_bytes());
    }

    fn for_each_line(addr: ByteAddr, len: usize, mut f: impl FnMut(LineAddr)) {
        if len == 0 {
            return;
        }
        let first = addr.line().0;
        let last = ByteAddr(addr.0 + len as u64 - 1).line().0;
        for l in first..=last {
            f(LineAddr(l));
        }
    }

    /// Issues `clwb` for every line covering `[addr, addr+len)`.
    pub fn clwb(&mut self, addr: ByteAddr, len: usize) {
        Self::for_each_line(addr, len, |line| self.trace.push(TraceEvent::Clwb { line }));
    }

    /// Issues `counter_cache_writeback()` for every counter line covering
    /// `[addr, addr+len)` (§4.3). Deduplicates counter lines within the
    /// range — eight data lines share one counter line.
    pub fn counter_cache_writeback(&mut self, addr: ByteAddr, len: usize) {
        let mut last_cline = None;
        Self::for_each_line(addr, len, |line| {
            let cline = line.counter_line();
            if last_cline != Some(cline) {
                last_cline = Some(cline);
                self.trace.push(TraceEvent::CounterCacheWriteback { line });
            }
        });
    }

    /// Issues a `persist_barrier` (`sfence`): orders all preceding
    /// persists before anything after.
    pub fn persist_barrier(&mut self) {
        self.trace.push(TraceEvent::PersistBarrier);
    }

    /// Records `ns` nanoseconds of non-memory computation.
    pub fn compute(&mut self, ns: u64) {
        self.trace.push(TraceEvent::Compute {
            duration: Time::from_ns(ns),
        });
    }

    /// Marks the durable commit point of transaction `id`.
    pub fn commit_marker(&mut self, id: u64) {
        self.trace.push(TraceEvent::TxCommit { id });
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the context, yielding the trace and the final functional
    /// memory image (ground truth for end-state checks).
    pub fn into_parts(self) -> (Trace, HashMap<LineAddr, LineData>) {
        (self.trace, self.mem)
    }
}

/// A static address planner: carves a core's region into non-overlapping
/// allocations. Allocation metadata is compile-time knowledge of the
/// workload (there is no dynamic free), so nothing needs to persist.
#[derive(Debug, Clone)]
pub struct RegionPlanner {
    next: u64,
    end: u64,
}

impl RegionPlanner {
    /// Plans within `region` (usually [`Pmem::region`]).
    pub fn new(region: Range<u64>) -> Self {
        Self {
            next: region.start,
            end: region.end,
        }
    }

    /// Reserves `size` bytes aligned to `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the region is
    /// exhausted.
    pub fn alloc(&mut self, size: u64, align: u64) -> ByteAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        assert!(base + size <= self.end, "core region exhausted");
        self.next = base + size;
        ByteAddr(base)
    }

    /// Reserves a cache-line-aligned block.
    pub fn alloc_lines(&mut self, lines: u64) -> ByteAddr {
        self.alloc(lines * LINE_BYTES, LINE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mut pm = Pmem::for_core(0);
        assert_eq!(pm.read_u64(ByteAddr(64)), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut pm = Pmem::for_core(0);
        pm.write(ByteAddr(10), &[1, 2, 3]);
        let mut buf = [0u8; 3];
        pm.read(ByteAddr(10), &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn cross_line_write_emits_two_events() {
        let mut pm = Pmem::for_core(0);
        pm.write(ByteAddr(60), &[9; 8]); // spans lines 0 and 1
        assert_eq!(pm.trace().write_count(), 2);
        let mut buf = [0u8; 8];
        pm.peek(ByteAddr(60), &mut buf);
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    #[should_panic(expected = "span cache lines")]
    fn counter_atomic_write_must_not_span_lines() {
        let mut pm = Pmem::for_core(0);
        pm.write_counter_atomic(ByteAddr(60), &[1; 8]);
    }

    #[test]
    fn counter_atomic_write_sets_flag() {
        let mut pm = Pmem::for_core(0);
        pm.write_u64_counter_atomic(ByteAddr(0), 1);
        match pm.trace().get(0) {
            Some(TraceEvent::Write { counter_atomic, .. }) => assert!(counter_atomic),
            e => panic!("unexpected event {e:?}"),
        }
    }

    #[test]
    fn region_isolation_enforced() {
        let mut pm = Pmem::for_core(1);
        let start = pm.region().start;
        pm.write_u64(ByteAddr(start), 5); // fine
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pm.write_u64(ByteAddr(0), 5); // core 0's region
        }));
        assert!(result.is_err());
    }

    #[test]
    fn clwb_covers_all_lines() {
        let mut pm = Pmem::for_core(0);
        pm.clwb(ByteAddr(0), 130); // lines 0, 1, 2
        let clwbs = pm
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Clwb { .. }))
            .count();
        assert_eq!(clwbs, 3);
    }

    #[test]
    fn ccwb_dedupes_counter_lines() {
        let mut pm = Pmem::for_core(0);
        // 16 data lines = 2 counter lines.
        pm.counter_cache_writeback(ByteAddr(0), 16 * 64);
        let ccwbs = pm
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CounterCacheWriteback { .. }))
            .count();
        assert_eq!(ccwbs, 2);
    }

    #[test]
    fn u64_roundtrip() {
        let mut pm = Pmem::for_core(0);
        pm.write_u64(ByteAddr(8), 0xdead_beef);
        assert_eq!(pm.read_u64(ByteAddr(8)), 0xdead_beef);
    }

    #[test]
    fn planner_alignment_and_disjointness() {
        let mut p = RegionPlanner::new(0..4096);
        let a = p.alloc(10, 8);
        let b = p.alloc(100, 64);
        assert_eq!(a.0 % 8, 0);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn planner_exhaustion_panics() {
        let mut p = RegionPlanner::new(0..128);
        let _ = p.alloc(256, 8);
    }

    #[test]
    fn zero_length_clwb_is_noop() {
        let mut pm = Pmem::for_core(0);
        pm.clwb(ByteAddr(0), 0);
        assert!(pm.trace().is_empty());
    }
}
