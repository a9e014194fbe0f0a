//! Write queues with ready bits: the hardware mechanism that enforces
//! counter-atomicity (paper §5.2.2).
//!
//! The memory controller holds a 64-entry data write queue and a
//! 16-entry counter write queue, both protected by ADR: once an entry is
//! *accepted and ready*, it is guaranteed durable even across a power
//! failure. For counter-atomic writes, the data and counter entries form
//! a pair whose ready bits are set only when **both** entries are
//! resident — so a crash can never persist one half of the pair.
//!
//! Timing model: drains are scheduled eagerly on the device in submit
//! order. A queue slot is occupied from acceptance until its drain
//! completes; accepting into a full queue waits for the oldest drain.
//! Counter-atomic pairs additionally serialize through a single drain
//! engine (the paper's Fig. 7a worst case: `data₁, ctr₁, data₂, ctr₂ …`),
//! while plain writes enjoy full bank parallelism (Fig. 7b).
//!
//! Coalescing: a write to a line that already has a *pending, not yet
//! draining, non-counter-atomic* entry merges into it — no new slot, no
//! new device write. This is how SCA's counter-cache buffering shows up
//! as reduced counter traffic when lines are written back repeatedly.
//! Once submissions are known never to come before some instant, the
//! entries whose drain began by then can never merge again, and
//! [`WriteQueues::retire_through`] drops them.

use crate::addr::NvmmTarget;
use crate::device::{AccessKind, PcmDevice};
use crate::time::Time;
use fxhash::FxHashMap;
use std::collections::VecDeque;

/// Receipt for a plain (non-counter-atomic) write submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainReceipt {
    /// When the entry was accepted into the ADR-protected queue. For a
    /// plain write this is also the instant durability is guaranteed.
    pub accepted: Time,
    /// Scheduled NVMM drain completion.
    pub drained: Time,
    /// Whether the write merged into an existing pending entry.
    pub coalesced: bool,
}

/// Receipt for a counter-atomic pair submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaReceipt {
    /// When both halves were resident and the ready bits were set; the
    /// instant durability of the pair is guaranteed.
    pub ready: Time,
    /// Scheduled drain completion of the pair.
    pub drained: Time,
    /// Whether the counter half merged into an existing pending counter
    /// entry.
    pub counter_coalesced: bool,
    /// How long the submission waited for the serialized pairing
    /// coordinator (Fig. 7a's dependent-write chaining) before its own
    /// handshake could begin. Zero when the coordinator was free.
    pub pairing_wait: Time,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    drain_start: Time,
    drain_done: Time,
}

/// Slot-occupancy model for one queue.
#[derive(Debug, Clone)]
struct SlotQueue {
    capacity: usize,
    /// Drain completion times of occupied slots, oldest first.
    slots: VecDeque<Time>,
}

impl SlotQueue {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            slots: VecDeque::new(),
        }
    }

    /// Earliest time at or after `t` a slot is free; consumes the slot.
    fn accept(&mut self, t: Time) -> Time {
        while self.slots.front().is_some_and(|&d| d <= t) {
            self.slots.pop_front();
        }
        if self.slots.len() < self.capacity {
            t
        } else {
            let freed = self.slots.pop_front().expect("queue is full, so non-empty");
            freed.max(t)
        }
    }

    /// Records the drain completion of the just-accepted entry.
    fn push_drain(&mut self, done: Time) {
        // Keep the deque sorted; drains are near-monotonic so this is
        // usually a push_back.
        let pos = self
            .slots
            .iter()
            .rposition(|&d| d <= done)
            .map_or(0, |p| p + 1);
        self.slots.insert(pos, done);
    }

    fn occupancy_at(&self, t: Time) -> usize {
        self.slots.iter().filter(|&&d| d > t).count()
    }
}

/// The paired data/counter write-queue complex.
#[derive(Debug, Clone)]
pub struct WriteQueues {
    data: SlotQueue,
    counter: SlotQueue,
    /// Integrity-metadata (MAC line / tree node) write queue; unused
    /// (but present) when the integrity policy is off.
    meta: SlotQueue,
    /// Pending (not yet draining) entries eligible for coalescing.
    pending: FxHashMap<NvmmTarget, Pending>,
    /// Next instant the pairing coordinator is free: consecutive
    /// counter-atomic pairs serialize through the ready-bit handshake
    /// (Fig. 7a dependent-write ordering).
    pairing_free: Time,
    /// Serialized cost of one pairing handshake.
    pair_overhead: Time,
}

impl WriteQueues {
    /// Creates queues with the given capacities (Table 2: 64 data,
    /// 16 counter; the metadata queue mirrors the counter queue's 16).
    pub fn new(
        data_entries: usize,
        counter_entries: usize,
        meta_entries: usize,
        pair_overhead: Time,
    ) -> Self {
        Self {
            data: SlotQueue::new(data_entries),
            counter: SlotQueue::new(counter_entries),
            meta: SlotQueue::new(meta_entries),
            pending: FxHashMap::default(),
            pairing_free: Time::ZERO,
            pair_overhead,
        }
    }

    fn try_coalesce(&mut self, target: NvmmTarget, t: Time) -> Option<PlainReceipt> {
        let p = self.pending.get(&target)?;
        if p.drain_start > t {
            Some(PlainReceipt {
                accepted: t,
                drained: p.drain_done,
                coalesced: true,
            })
        } else {
            None
        }
    }

    /// Submits a plain (always-ready) write to the appropriate queue.
    ///
    /// Data-region targets consume a data-queue slot; counter-region
    /// targets consume a counter-queue slot (e.g. `counter_cache_writeback`
    /// flushes and counter-cache evictions, §5.2.2: "the ready bit of the
    /// counter write queue entry is always set to 1").
    pub fn submit_plain(
        &mut self,
        device: &mut PcmDevice,
        target: NvmmTarget,
        t: Time,
    ) -> PlainReceipt {
        if let Some(r) = self.try_coalesce(target, t) {
            return r;
        }
        let q = match target {
            NvmmTarget::Data(_) => &mut self.data,
            NvmmTarget::Counter(_) | NvmmTarget::PackedMeta(_) => &mut self.counter,
            NvmmTarget::Mac(_) | NvmmTarget::TreeNode(_) => &mut self.meta,
        };
        let accepted = q.accept(t);
        let sched = device.schedule(target, AccessKind::Write, accepted);
        let q = match target {
            NvmmTarget::Data(_) => &mut self.data,
            NvmmTarget::Counter(_) | NvmmTarget::PackedMeta(_) => &mut self.counter,
            NvmmTarget::Mac(_) | NvmmTarget::TreeNode(_) => &mut self.meta,
        };
        q.push_drain(sched.done);
        self.pending.insert(
            target,
            Pending {
                drain_start: sched.start,
                drain_done: sched.done,
            },
        );
        PlainReceipt {
            accepted,
            drained: sched.done,
            coalesced: false,
        }
    }

    /// Submits a counter-atomic write: a data entry paired with a counter
    /// entry, ready (and ADR-guaranteed) only once both halves are
    /// resident in their queues with the ready bits set (§5.2.2).
    ///
    /// Drains proceed with full bank parallelism once the pair is ready.
    /// The cost of counter-atomicity surfaces as (i) doubled write
    /// traffic, (ii) the 16-entry counter queue's acceptance
    /// backpressure, and (iii) the serialized pairing handshake —
    /// consecutive pairs chain through the ready-bit coordinator
    /// (Fig. 7a's dependent-write ordering), which is what saturates
    /// when *every* write is a pair (FCA) on many cores.
    pub fn submit_counter_atomic(
        &mut self,
        device: &mut PcmDevice,
        data_target: NvmmTarget,
        counter_target: NvmmTarget,
        t: Time,
    ) -> CaReceipt {
        debug_assert!(matches!(data_target, NvmmTarget::Data(_)));
        debug_assert!(matches!(
            counter_target,
            NvmmTarget::Counter(_) | NvmmTarget::PackedMeta(_)
        ));

        // Dependent on the previous pairing handshake completing.
        let pairing_wait = self.pairing_free.saturating_sub(t);
        let t = t.max(self.pairing_free);

        // The counter half may coalesce into a pending counter-line entry
        // (several data lines share one counter line) — but only when the
        // data half is accepted *now*, otherwise a crash inside the
        // data-acceptance window would persist the (already ready) merged
        // counter without its data, breaking the pair's atomicity.
        let counter_merge = if self.data.occupancy_at(t) < self.data.capacity {
            self.try_coalesce(counter_target, t)
        } else {
            None
        };

        let t_data = self.data.accept(t);
        let (resident, counter_coalesced) = match counter_merge {
            Some(_) => (t_data, true),
            None => {
                let t_ctr = self.counter.accept(t);
                (t_data.max(t_ctr), false)
            }
        };
        // The handshake itself takes time: the pair is ready (and the
        // coordinator free for the next pair) once the ready bits are set.
        let ready = resident + self.pair_overhead;
        self.pairing_free = ready;

        let d_data = device.schedule(data_target, AccessKind::Write, ready);
        self.data.push_drain(d_data.done);
        // Counter-atomic data entries never coalesce with later writes:
        // merging would clear a ready bit ADR already vouched for.
        self.pending.remove(&data_target);

        let drained = if counter_coalesced {
            d_data.done
        } else {
            let d_ctr = device.schedule(counter_target, AccessKind::Write, ready);
            self.counter.push_drain(d_ctr.done);
            self.pending.insert(
                counter_target,
                Pending {
                    drain_start: d_ctr.start,
                    drain_done: d_ctr.done,
                },
            );
            d_data.done.max(d_ctr.done)
        };
        CaReceipt {
            ready,
            drained,
            counter_coalesced,
            pairing_wait,
        }
    }

    /// Drops the coalescing entries whose drain began at or before
    /// `watermark`. The caller guarantees that every later submission
    /// arrives at or after `watermark`; a write merges only into an
    /// entry whose drain starts after its arrival, so none of these
    /// could merge again, and every later receipt is unchanged.
    pub fn retire_through(&mut self, watermark: Time) {
        self.pending.retain(|_, p| p.drain_start > watermark);
    }

    /// Data-queue occupancy at `t` (for tests and stats).
    pub fn data_occupancy(&self, t: Time) -> usize {
        self.data.occupancy_at(t)
    }

    /// Counter-queue occupancy at `t`.
    pub fn counter_occupancy(&self, t: Time) -> usize {
        self.counter.occupancy_at(t)
    }

    /// Metadata-queue occupancy at `t`.
    pub fn meta_occupancy(&self, t: Time) -> usize {
        self.meta.occupancy_at(t)
    }

    /// Data-queue slot capacity.
    pub fn data_capacity(&self) -> usize {
        self.data.capacity
    }

    /// Counter-queue slot capacity.
    pub fn counter_capacity(&self) -> usize {
        self.counter.capacity
    }

    /// How long a counter-atomic submission arriving at `t` would wait
    /// for the serialized pairing coordinator. Everything submitted
    /// before the coordinator frees is in flight: its ready bit is not
    /// set yet, so a crash may or may not persist it — the in-flight
    /// window the crash model checker enumerates over.
    pub fn pairing_backlog(&self, t: Time) -> Time {
        self.pairing_free.saturating_sub(t)
    }

    /// The instant every accepted entry has finished draining and the
    /// pairing coordinator is idle. A crash at or after this time has an
    /// empty in-flight set: exactly one legal post-crash image.
    pub fn quiesce_time(&self) -> Time {
        let drain = |q: &SlotQueue| q.slots.back().copied().unwrap_or(Time::ZERO);
        drain(&self.data)
            .max(drain(&self.counter))
            .max(drain(&self.meta))
            .max(self.pairing_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CounterLineAddr, LineAddr};
    use crate::config::{Design, SimConfig};
    use proptest::prelude::*;

    fn setup() -> (PcmDevice, WriteQueues) {
        let cfg = SimConfig::single_core(Design::Sca);
        (
            PcmDevice::new(&cfg),
            WriteQueues::new(4, 2, 2, Time::from_ns(150)),
        )
    }

    fn data(l: u64) -> NvmmTarget {
        NvmmTarget::Data(LineAddr(l))
    }

    fn ctr(l: u64) -> NvmmTarget {
        NvmmTarget::Counter(CounterLineAddr(l))
    }

    #[test]
    fn plain_write_accepted_immediately_when_empty() {
        let (mut dev, mut wq) = setup();
        let r = wq.submit_plain(&mut dev, data(0), Time::ZERO);
        assert_eq!(r.accepted, Time::ZERO);
        assert!(!r.coalesced);
        assert_eq!(wq.data_occupancy(Time::ZERO), 1);
    }

    #[test]
    fn full_queue_delays_acceptance() {
        let (mut dev, mut wq) = setup();
        let mut last = PlainReceipt {
            accepted: Time::ZERO,
            drained: Time::ZERO,
            coalesced: false,
        };
        // Fill all 4 slots with same-bank writes so drains serialize.
        for i in 0..5 {
            last = wq.submit_plain(&mut dev, data(i * 8), Time::ZERO);
        }
        assert!(last.accepted > Time::ZERO, "5th write must wait for a slot");
    }

    #[test]
    fn coalescing_merges_pending_same_line() {
        let (mut dev, mut wq) = setup();
        // Fill the device so the first write's drain starts late.
        for i in 0..3 {
            wq.submit_plain(&mut dev, data(i * 8), Time::ZERO);
        }
        let first = wq.submit_plain(&mut dev, data(100), Time::ZERO);
        let second = wq.submit_plain(&mut dev, data(100), Time::from_ps(1));
        if first.drained > Time::from_ps(1) {
            assert!(second.coalesced, "same-line pending write should coalesce");
            assert_eq!(second.drained, first.drained);
        }
    }

    #[test]
    fn no_coalesce_once_draining() {
        let (mut dev, mut wq) = setup();
        let first = wq.submit_plain(&mut dev, data(0), Time::ZERO);
        // Submit long after the drain started.
        let late = wq.submit_plain(&mut dev, data(0), first.drained + Time::from_ns(1));
        assert!(!late.coalesced);
    }

    #[test]
    fn ca_pair_ready_needs_both_queues() {
        let (mut dev, mut wq) = setup();
        let r = wq.submit_counter_atomic(&mut dev, data(0), ctr(0), Time::ZERO);
        // Ready once the pairing handshake (150 ns here) completes.
        assert_eq!(r.ready, Time::from_ns(150));
        assert!(!r.counter_coalesced);
        // Both queues hold one entry.
        assert_eq!(wq.data_occupancy(Time::ZERO), 1);
        assert_eq!(wq.counter_occupancy(Time::ZERO), 1);
    }

    #[test]
    fn ca_pairs_chain_on_readiness() {
        let (mut dev, mut wq) = setup();
        // Fill the counter queue so the first pair's readiness is pushed
        // out; the second pair must chain behind it even on idle banks.
        wq.submit_plain(&mut dev, ctr(100), Time::ZERO);
        wq.submit_plain(&mut dev, ctr(200), Time::ZERO);
        let a = wq.submit_counter_atomic(&mut dev, data(1), ctr(1), Time::ZERO);
        assert!(
            a.ready > Time::ZERO,
            "counter queue is full; readiness must wait"
        );
        let b = wq.submit_counter_atomic(&mut dev, data(2), ctr(2), Time::ZERO);
        assert!(
            b.ready >= a.ready,
            "dependent pair must not become ready first"
        );
    }

    #[test]
    fn ca_pairing_wait_reflects_coordinator_backlog() {
        let (mut dev, mut wq) = setup();
        let a = wq.submit_counter_atomic(&mut dev, data(1), ctr(1), Time::ZERO);
        assert_eq!(a.pairing_wait, Time::ZERO, "coordinator starts free");
        let b = wq.submit_counter_atomic(&mut dev, data(2), ctr(2), Time::ZERO);
        assert_eq!(
            b.pairing_wait, a.ready,
            "second pair waits out the first handshake"
        );
        // A pair arriving after the coordinator drains waits for nothing.
        let c = wq.submit_counter_atomic(&mut dev, data(3), ctr(3), b.ready + Time::from_ns(1));
        assert_eq!(c.pairing_wait, Time::ZERO);
    }

    #[test]
    fn ca_pairs_drain_bank_parallel() {
        let (mut dev, mut wq) = setup();
        let a = wq.submit_counter_atomic(&mut dev, data(1), ctr(1), Time::ZERO);
        let b = wq.submit_counter_atomic(&mut dev, data(2), ctr(2), Time::ZERO);
        // Each pair pays its own handshake and consecutive pairs chain
        // through the coordinator, but drains still overlap on other
        // banks — no full-drain serialization.
        assert_eq!(a.ready, Time::from_ns(150));
        assert_eq!(b.ready, Time::from_ns(300));
        assert!(b.drained < a.drained + Time::from_ns(313));
    }

    #[test]
    fn ca_counter_coalesces_with_pending_counter_line() {
        let (mut dev, mut wq) = setup();
        // Back up the write direction so counter drains start late enough
        // for the second pair (delayed by the pairing handshake) to find
        // the first pair's counter entry still pending.
        for i in 0..64 {
            dev.schedule(data(i), crate::device::AccessKind::Write, Time::ZERO);
        }
        // Two CA writes to data lines sharing counter line 0, back to back.
        let a = wq.submit_counter_atomic(&mut dev, data(100), ctr(0), Time::ZERO);
        let b = wq.submit_counter_atomic(&mut dev, data(101), ctr(0), Time::ZERO);
        assert!(!a.counter_coalesced);
        assert!(
            b.counter_coalesced,
            "second pair reuses the pending counter entry"
        );
        // Coalesced pair only drains the data half.
        assert!(b.drained >= a.ready);
    }

    #[test]
    fn counter_queue_backpressure() {
        let (mut dev, mut wq) = setup();
        // Counter queue capacity is 2; distinct counter lines prevent
        // coalescing. The third pair's ready time must be pushed out.
        let mut last_ready = Time::ZERO;
        for i in 0..3 {
            let r = wq.submit_counter_atomic(&mut dev, data(i), ctr(i * 100), Time::ZERO);
            last_ready = r.ready;
        }
        assert!(
            last_ready > Time::ZERO,
            "counter WQ backpressure must delay readiness"
        );
    }

    #[test]
    fn plain_writes_enjoy_bank_parallelism() {
        let (mut dev, mut wq) = setup();
        let a = wq.submit_plain(&mut dev, data(1), Time::ZERO);
        let b = wq.submit_plain(&mut dev, data(2), Time::ZERO);
        // Bank-parallel: drains overlap (unlike the CA engine).
        assert!(b.drained < a.drained + Time::from_ns(313));
    }

    #[test]
    fn metadata_writes_use_their_own_queue() {
        use crate::addr::{MacLineAddr, TreeNodeAddr};
        let (mut dev, mut wq) = setup();
        let m = NvmmTarget::Mac(MacLineAddr(3));
        let n = NvmmTarget::TreeNode(TreeNodeAddr { level: 1, index: 0 });
        wq.submit_plain(&mut dev, m, Time::ZERO);
        wq.submit_plain(&mut dev, n, Time::ZERO);
        assert_eq!(wq.meta_occupancy(Time::ZERO), 2);
        assert_eq!(wq.data_occupancy(Time::ZERO), 0);
        assert_eq!(wq.counter_occupancy(Time::ZERO), 0);
        // A third metadata write must wait: the 2-entry queue is full.
        let late = wq.submit_plain(&mut dev, NvmmTarget::Mac(MacLineAddr(77)), Time::ZERO);
        assert!(late.accepted > Time::ZERO, "meta queue backpressure");
        assert!(wq.quiesce_time() >= late.drained);
    }

    #[test]
    fn occupancy_decays_over_time() {
        let (mut dev, mut wq) = setup();
        let r = wq.submit_plain(&mut dev, data(0), Time::ZERO);
        assert_eq!(wq.data_occupancy(Time::ZERO), 1);
        assert_eq!(wq.data_occupancy(r.drained + Time::from_ns(1)), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
        /// Retiring coalescing entries is invisible. Random plain data,
        /// counter, packed, MAC and tree-node submissions and
        /// counter-atomic pairs on a few targets, never before the
        /// latest watermark, get exactly the receipts of a twin queue
        /// that never retires. Most watermarks fall within 1 ns below
        /// some pending entry's drain start, and the next write often
        /// goes to that entry's target: retiring an entry a nanosecond
        /// too late would drop one that write merges into.
        fn retiring_behind_the_watermark_changes_no_receipt(seed in 0u64..1_000_000) {
            use crate::addr::{MacLineAddr, TreeNodeAddr};
            use crate::crashmc::splitmix64;
            let mut state = seed;
            let mut draw = move |n: u64| splitmix64(&mut state) % n;
            let (mut dev, mut wq) = setup();
            let (mut twin_dev, mut twin) = setup();
            let mut now = Time::ZERO;
            let mut watermark = Time::ZERO;
            let mut focus = None;
            for step in 0..300 {
                now += Time::from_ps(draw(2_000));
                let plain = |draw: &mut dyn FnMut(u64) -> u64| match draw(5) {
                    0 => data(draw(4)),
                    1 => ctr(draw(2)),
                    2 => NvmmTarget::PackedMeta(CounterLineAddr(draw(2))),
                    3 => NvmmTarget::Mac(MacLineAddr(draw(2))),
                    _ => NvmmTarget::TreeNode(TreeNodeAddr { level: 1, index: draw(2) }),
                };
                match draw(6) {
                    0 => {
                        let mut starts: Vec<(Time, NvmmTarget)> = twin
                            .pending
                            .iter()
                            .filter(|(_, p)| p.drain_start > watermark)
                            .map(|(&target, p)| (p.drain_start, target))
                            .collect();
                        starts.sort_by_key(|&(at, _)| at);
                        watermark = match starts.len() as u64 {
                            0 => watermark.max(now.saturating_sub(Time::from_ps(draw(3_000)))),
                            n => {
                                let (at, target) = starts[draw(n) as usize];
                                focus = Some(target);
                                watermark.max(at.saturating_sub(Time::from_ps(draw(1_001))))
                            }
                        };
                        now = now.max(watermark);
                        wq.retire_through(watermark);
                    }
                    1 => {
                        let d = data(draw(4));
                        let c = if draw(2) == 0 {
                            ctr(draw(2))
                        } else {
                            NvmmTarget::PackedMeta(CounterLineAddr(draw(2)))
                        };
                        let got = wq.submit_counter_atomic(&mut dev, d, c, now);
                        let want = twin.submit_counter_atomic(&mut twin_dev, d, c, now);
                        prop_assert_eq!(got, want, "seed {}, step {}: pair {:?}", seed, step, (d, c));
                    }
                    _ => {
                        let target = match focus.take() {
                            Some(target) if draw(2) == 0 => target,
                            _ => plain(&mut draw),
                        };
                        let got = wq.submit_plain(&mut dev, target, now);
                        let want = twin.submit_plain(&mut twin_dev, target, now);
                        prop_assert_eq!(got, want, "seed {}, step {}: {:?}", seed, step, target);
                    }
                }
            }
        }
    }
}
