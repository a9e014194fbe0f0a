//! Channel-sharded controller complex.
//!
//! The paper evaluates a single memory controller; service-scale load
//! (ROADMAP open item 3) needs several independent channels. A
//! [`ShardedController`] owns `N` memory-controller shards — each
//! with its own write-queue complex, pairing coordinator, counter-cache
//! slice, integrity-metadata queue, and banked PCM device — behind the
//! deterministic [`ShardMap`] interleave: a line, its counter line, and
//! its MAC line always land on the same shard, so the counter-atomic
//! pairing protocol never crosses a channel boundary.
//!
//! # Journal merge
//!
//! Each shard journals its NVMM writes independently. Whole-system
//! questions — the crash image, the model checker's crash set, persist
//! windows — are answered over the *merged* journal: a k-way merge that
//! repeatedly pops the front record with the smallest
//! `(submitted_at, shard_index)` key. The merge never reorders records
//! within a shard, so with one shard it is the identity: the shard's
//! journal in order, even where that order is not sorted by submission.
//! The model checker sees `(shard, domain)` serialization domains
//! ([`crate::crashmc`]), so per-channel drain order stays prefix-closed
//! while cross-channel landings interleave freely — exactly ADR's
//! guarantee when each channel has its own residual-energy drain.
//!
//! # Batched-journal compaction
//!
//! Completion-only runs over very long traces would otherwise hold one
//! journal record per NVMM write. `ShardedController::compact_through`
//! cuts the stable merged prefix (each shard's records up to its first
//! one submitted at or after the live-core watermark) and hands it to a
//! compaction worker thread, which folds it into a base [`NvmmImage`]
//! and a wear tally while replay goes on. The worker owns the base and
//! the tally: every reader of either first waits for all handed-off
//! batches, and a panic on the worker resurfaces on that reader.
//! Compaction is only sound when no crash analysis is requested:
//! [`ShardedController::crash_set`] panics once records have been
//! folded, and [`crate::system::System`] only compacts under
//! [`crate::system::CrashSpec::None`].

use crate::addr::{LineAddr, NvmmTarget, ShardMap};
use crate::config::{CacheGeometry, SimConfig};
use crate::controller::{JournalRecord, MemoryController};
use crate::crashmc::{fold_last_writers, CrashSet};
use crate::device::WearReport;
use crate::nvmm::NvmmImage;
use crate::stats::Stats;
use crate::time::Time;
use fxhash::FxHashMap;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::LineData;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Divides a cache's capacity across `n` shards at set granularity,
/// keeping at least one full set per slice. The split is exact: the
/// `total_sets % n` remainder sets go to the low-index shards, so the
/// per-shard capacities sum to the unsharded geometry's whole-set
/// capacity for every shard count — including non-powers of two —
/// whenever there are at least `n` sets to hand out. With one shard the
/// geometry is returned untouched, so the single-shard configuration is
/// bit-identical to the pre-sharding pipeline.
fn slice_geometry(g: CacheGeometry, shard: usize, n: usize) -> CacheGeometry {
    if n == 1 {
        return g;
    }
    let set_bytes = g.ways as u64 * 64;
    let total_sets = g.capacity_bytes / set_bytes;
    let base = total_sets / n as u64;
    let extra = ((shard as u64) < total_sets % n as u64) as u64;
    CacheGeometry {
        capacity_bytes: (base + extra).max(1) * set_bytes,
        ..g
    }
}

/// The k-way merge of per-shard journal slices by
/// `(submitted_at, shard_index)` described in the module docs,
/// streamed through a [`BinaryHeap`] of per-shard cursors: O(shards)
/// state and O(log shards) per record, never materializing the merged
/// list. Within a shard, records come in submission order, so with one
/// shard this is the identity traversal. Bounding each slice merges
/// journal *prefixes* — a crash sweep's cut at one instant.
pub(crate) struct MergedJournal<'a> {
    /// The unvisited remainder of each shard's slice.
    rest: Vec<&'a [JournalRecord]>,
    heap: BinaryHeap<Reverse<(Time, usize)>>,
}

impl<'a> MergedJournal<'a> {
    /// Merges `journals`, one slice per shard in shard order.
    pub(crate) fn new(journals: Vec<&'a [JournalRecord]>) -> Self {
        let heap = journals
            .iter()
            .enumerate()
            .filter_map(|(s, j)| j.first().map(|rec| Reverse((rec.submitted_at, s))))
            .collect();
        Self {
            rest: journals,
            heap,
        }
    }
}

impl<'a> Iterator for MergedJournal<'a> {
    type Item = &'a JournalRecord;

    fn next(&mut self) -> Option<&'a JournalRecord> {
        let Reverse((_, s)) = self.heap.pop()?;
        let (rec, rest) = self.rest[s]
            .split_first()
            .expect("heap entries point at unvisited records");
        self.rest[s] = rest;
        if let Some(next) = rest.first() {
            self.heap.push(Reverse((next.submitted_at, s)));
        }
        Some(rec)
    }
}

/// `N` channel-sharded memory controllers behind a deterministic
/// address interleave (see the module docs).
#[derive(Debug)]
pub struct ShardedController {
    map: ShardMap,
    shards: Vec<MemoryController>,
    /// Total journal records handed to compaction so far.
    compacted: u64,
    /// What compaction folded, or the worker folding it. Readers wait
    /// through a shared reference; the replay thread reaches it
    /// without locking.
    folding: Mutex<Folding>,
}

/// Adds one write per record to its target's count. Every NVMM write
/// request journals exactly one record, so tallying a run's journal is
/// its per-line wear.
fn tally_wear<'a>(
    counts: &mut FxHashMap<NvmmTarget, u64>,
    records: impl IntoIterator<Item = &'a JournalRecord>,
) {
    for rec in records {
        *counts.entry(rec.op.target()).or_default() += 1;
    }
}

/// Everything compacted journal records left behind.
#[derive(Debug)]
struct Folded {
    /// Image accumulated from the folded records. It is never
    /// fingerprinted itself, so it accumulates untracked.
    base: NvmmImage,
    /// Writes per NVMM target among the folded records: the compacted
    /// half of the wear tally.
    wear: FxHashMap<NvmmTarget, u64>,
}

impl Folded {
    fn new() -> Self {
        Self {
            base: NvmmImage::untracked(),
            wear: FxHashMap::default(),
        }
    }

    /// Folds one batch — a journal prefix per shard, in shard order —
    /// into the base image in the prefixes' k-way merge order, and
    /// tallies its writes.
    fn fold(&mut self, prefixes: &[Vec<JournalRecord>]) {
        let slices = prefixes.iter().map(Vec::as_slice).collect();
        fold_last_writers(
            &mut self.base,
            MergedJournal::new(slices).map(|rec| &rec.op),
        );
        // A batch rewrites few targets many times (a strict write's
        // tree path ends at the one root), so it is tallied in a small
        // map first and merged into the run's tally once per target.
        let mut batch = FxHashMap::default();
        tally_wear(&mut batch, prefixes.iter().flatten());
        for (target, count) in batch {
            *self.wear.entry(target).or_default() += count;
        }
    }
}

/// Batches handed to the worker that it has not taken yet, beyond the
/// one it folds: the replay thread blocks rather than queue more.
const BATCH_BACKLOG: usize = 1;

/// A thread that folds handed-off batches in hand-off order and sends
/// each emptied journal buffer back.
#[derive(Debug)]
struct CompactionWorker {
    batches: SyncSender<Vec<Vec<JournalRecord>>>,
    emptied: Receiver<Vec<JournalRecord>>,
    thread: JoinHandle<Folded>,
}

impl CompactionWorker {
    /// Starts folding into `folded` with `fold` (production passes
    /// [`Folded::fold`]).
    fn spawn(mut folded: Folded, fold: fn(&mut Folded, &[Vec<JournalRecord>])) -> Self {
        let (batches, inbox) = mpsc::sync_channel::<Vec<Vec<JournalRecord>>>(BATCH_BACKLOG);
        let (give_back, emptied) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("nvmm-compaction".into())
            .spawn(move || {
                for batch in inbox {
                    fold(&mut folded, &batch);
                    for mut buf in batch {
                        buf.clear();
                        // The replay thread may be gone already.
                        let _ = give_back.send(buf);
                    }
                }
                folded
            })
            .expect("failed to spawn the compaction worker");
        Self {
            batches,
            emptied,
            thread,
        }
    }

    /// Closes the inbox, waits until the worker has folded every batch
    /// in it, and moves the buffers it emptied into `spares`.
    fn join(self, spares: &mut Vec<Vec<JournalRecord>>) -> std::thread::Result<Folded> {
        drop(self.batches);
        let folded = self.thread.join();
        spares.extend(self.emptied.try_iter());
        folded
    }
}

/// Compaction state: the folded result, which lives on the worker
/// while one runs.
#[derive(Debug)]
struct Folding {
    worker: Option<CompactionWorker>,
    /// Meaningful only while `worker` is `None`.
    folded: Folded,
    /// Emptied journal buffers, each to become a shard's live journal
    /// at a later cut so that no live journal regrows.
    spares: Vec<Vec<JournalRecord>>,
}

impl Folding {
    /// Joins the worker, if one runs, and returns what it folded. A
    /// panic on the worker resurfaces here, with its message.
    fn settle(&mut self) -> &mut Folded {
        if let Some(worker) = self.worker.take() {
            self.folded = worker
                .join(&mut self.spares)
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        &mut self.folded
    }
}

impl Drop for Folding {
    /// A controller dropped unread (its replay panicked, say) still
    /// joins its worker. A worker panic is not raised again here: the
    /// panic hook has reported it, and a drop must not panic.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join(&mut self.spares);
        }
    }
}

impl ShardedController {
    /// Builds `config.shards` controllers. The shared counter and
    /// integrity-metadata caches are sliced across shards at set
    /// granularity (total capacity preserved exactly — remainder sets
    /// go to the low-index shards); queues, banks, and the bus are
    /// per-channel resources and stay full-size in every shard.
    pub fn new(config: &SimConfig) -> Self {
        let map = ShardMap::new(config.shards);
        let shards = (0..config.shards)
            .map(|s| {
                let mut cfg = config.clone();
                cfg.counter_cache = slice_geometry(config.counter_cache, s, config.shards);
                cfg.metadata_cache = slice_geometry(config.metadata_cache, s, config.shards);
                MemoryController::new(&cfg, s)
            })
            .collect();
        Self {
            map,
            shards,
            compacted: 0,
            folding: Mutex::new(Folding {
                worker: None,
                folded: Folded::new(),
                spares: Vec::new(),
            }),
        }
    }

    /// The encryption engine (identical across shards — one key).
    pub fn engine(&self) -> &EncryptionEngine {
        self.shards[0].engine()
    }

    /// Routes a demand read to the owning shard.
    pub fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData) {
        let s = self.map.shard_of(line);
        self.shards[s].read(line, t, stats)
    }

    /// Routes a write-back to the owning shard; returns the ADR
    /// guarantee instant.
    pub fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let s = self.map.shard_of(line);
        self.shards[s].writeback(line, data, counter_atomic, t, stats)
    }

    /// Routes an explicit counter-cache write-back to the shard owning
    /// `line` (and therefore its counter line).
    pub fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> Time {
        let s = self.map.shard_of(line);
        self.shards[s].counter_writeback(line, t, stats)
    }

    /// Instantaneous (data, counter) write-queue occupancy at `t`,
    /// summed over shards.
    pub fn write_queue_depths(&self, t: Time) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(d, c), ctl| {
            let (dd, cc) = ctl.write_queue_depths(t);
            (d + dd, c + cc)
        })
    }

    /// The instant every shard's write-queue complex is drained.
    pub fn quiesce_time(&self) -> Time {
        self.shards
            .iter()
            .map(|c| c.quiesce_time())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Wear/endurance report over every NVMM write on all shards: the
    /// compacted tally plus every live journal's targets. Tree nodes may
    /// be written from several shards, so per-target counts are merged
    /// exactly, and the report is identical at any shard count for the
    /// same write stream. Waits for every batch handed to compaction.
    pub fn wear_report(&self) -> WearReport {
        let compacted = self.settled().folded.wear.clone();
        self.wear_over(compacted)
    }

    /// The wear report of the `compacted` tally plus the live journals.
    fn wear_over(&self, mut counts: FxHashMap<NvmmTarget, u64>) -> WearReport {
        for ctl in &self.shards {
            tally_wear(&mut counts, ctl.journal());
        }
        WearReport::from_counts(counts.into_values())
    }

    /// Total journaled NVMM writes, including compacted records.
    pub fn journal_len(&self) -> usize {
        self.shards.iter().map(|c| c.journal_len()).sum::<usize>() + self.compacted as usize
    }

    /// Number of journal records handed to compaction so far.
    pub fn compacted_records(&self) -> u64 {
        self.compacted
    }

    /// Waits for every batch handed to compaction; the returned guard
    /// holds what was folded.
    fn settled(&self) -> MutexGuard<'_, Folding> {
        let mut folding = self.folding.lock().expect("compaction state poisoned");
        folding.settle();
        folding
    }

    /// The live (un-compacted) journal in merged order (see
    /// [`MergedJournal`]).
    fn merged(&self) -> MergedJournal<'_> {
        MergedJournal::new(self.live_journals())
    }

    /// Each shard's live (un-compacted) journal, in shard order.
    pub(crate) fn live_journals(&self) -> Vec<&[JournalRecord]> {
        self.shards.iter().map(|ctl| ctl.journal()).collect()
    }

    /// Streams the merge keys `(submitted_at, shard)` of the live
    /// journal in merged order, without exposing the record type or
    /// materializing the merged list. This is the public face of the
    /// private heap-merge traversal: `tests/merge_streaming.rs`
    /// drives it under a counting allocator to pin the O(shards)
    /// allocation bound (the crate itself forbids the `unsafe` a
    /// counting `GlobalAlloc` needs).
    pub fn for_each_merged_key(&self, mut f: impl FnMut(Time, usize)) {
        self.merged().for_each(|rec| f(rec.submitted_at, rec.shard));
    }

    /// Moves every shard's journal out, in shard order, for a crash
    /// sweep to cut by time.
    ///
    /// # Panics
    ///
    /// Panics after journal compaction, like
    /// [`ShardedController::crash_set`].
    pub(crate) fn take_journals(&mut self) -> Vec<Vec<JournalRecord>> {
        assert!(
            self.compacted == 0,
            "crash analysis unavailable after journal compaction"
        );
        self.shards.iter_mut().map(|c| c.take_journal()).collect()
    }

    /// Builds the NVMM image a run that completes here leaves: a copy of
    /// the compaction base, once every handed-off batch is folded, with
    /// each cell's last writer in merged order on top. The image of a
    /// crash at `t` is [`ShardedController::crash_set`]`(t)`'s
    /// [`baseline`](CrashSet::baseline).
    pub fn build_image(&self) -> NvmmImage {
        let base = self.settled().folded.base.clone();
        self.complete(base)
    }

    /// What a controller that is done leaves:
    /// [`ShardedController::build_image`] and
    /// [`ShardedController::wear_report`], built on the compaction base
    /// and tally themselves instead of copies. Both are left empty, so
    /// the controller has no compacted records to answer for afterwards:
    /// call this once, at the end.
    pub(crate) fn take_completion(&mut self) -> (NvmmImage, WearReport) {
        let folding = self.folding.get_mut().expect("compaction state poisoned");
        folding.settle();
        // No later cut needs the emptied buffers.
        folding.spares = Vec::new();
        let Folded { base, wear } = std::mem::replace(&mut folding.folded, Folded::new());
        let wear = self.wear_over(wear);
        (self.complete(base), wear)
    }

    /// Lays each cell's last writer from the live journal over `img`, in
    /// merged order, and seals it.
    fn complete(&self, mut img: NvmmImage) -> NvmmImage {
        fold_last_writers(&mut img, self.merged().map(|rec| &rec.op));
        img.seal();
        img
    }

    /// The full crash state at `crash_time` for the model checker, over
    /// the merged journal (serialization domains are `(shard, domain)`
    /// pairs — see [`crate::crashmc`]).
    ///
    /// # Panics
    ///
    /// Panics after journal compaction: a folded record's in-flight
    /// window is gone, so enumeration would be unsound.
    pub fn crash_set(&self, crash_time: Time) -> CrashSet {
        assert!(
            self.compacted == 0,
            "crash analysis unavailable after journal compaction"
        );
        CrashSet::from_journal(&self.live_journals(), crash_time)
    }

    /// Persist windows of every live journaled write whose guarantee
    /// arrived strictly after submission, in merged order. After
    /// compaction this covers only the un-folded tail.
    pub fn persist_windows(&self) -> Vec<(Time, Time)> {
        self.merged()
            .filter(|rec| rec.guaranteed_at > rec.submitted_at)
            .map(|rec| (rec.submitted_at, rec.guaranteed_at))
            .collect()
    }

    /// Cuts every shard's compactable journal prefix at `watermark`
    /// and retires its write-queue coalescing state
    /// (`MemoryController::retire_through`), then hands the prefixes,
    /// by move, to the compaction worker (started by the first call),
    /// which folds them into the base image in their k-way merge order.
    /// The caller must guarantee that no future request arrives before
    /// `watermark` (the replay engine passes the minimum live-core
    /// clock). Every folded record then precedes every remaining and
    /// future one in the final merged order, so the completion image is
    /// unchanged.
    pub(crate) fn compact_through(&mut self, watermark: Time) {
        let folding = self.folding.get_mut().expect("compaction state poisoned");
        let worker = folding.worker.get_or_insert_with(|| {
            let folded = std::mem::replace(&mut folding.folded, Folded::new());
            CompactionWorker::spawn(folded, Folded::fold)
        });
        folding.spares.extend(worker.emptied.try_iter());
        let prefixes: Vec<Vec<JournalRecord>> = self
            .shards
            .iter_mut()
            .map(|ctl| ctl.retire_through(watermark, folding.spares.pop().unwrap_or_default()))
            .collect();
        self.compacted += prefixes.iter().map(Vec::len).sum::<usize>() as u64;
        if worker.batches.send(prefixes).is_err() {
            // The worker drops its inbox only by panicking; joining
            // resurfaces that panic.
            folding.settle();
            unreachable!("the compaction worker stopped without a panic");
        }
    }

    /// One SCA shard per journal, each holding that journal — for tests
    /// that stage journals no controller design emits.
    #[cfg(test)]
    pub(crate) fn with_journals(journals: Vec<Vec<JournalRecord>>) -> Self {
        let cfg = SimConfig::single_core(crate::config::Design::Sca).with_shards(journals.len());
        let mut sharded = Self::new(&cfg);
        for (ctl, journal) in sharded.shards.iter_mut().zip(journals) {
            *ctl.journal_mut() = journal;
        }
        sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use nvmm_crypto::LineData;

    fn cfg(shards: usize) -> SimConfig {
        SimConfig::single_core(Design::Sca).with_shards(shards)
    }

    fn data(i: u64) -> LineData {
        [i as u8; 64]
    }

    /// Each shard's live journal length.
    fn journal_lens(sharded: &ShardedController) -> Vec<usize> {
        sharded.shards.iter().map(|c| c.journal_len()).collect()
    }

    /// The keys a journal traversal visits, in order.
    fn keys<'a>(
        records: impl IntoIterator<Item = &'a JournalRecord>,
    ) -> Vec<(Time, Time, Option<u64>, usize)> {
        records
            .into_iter()
            .map(|r| (r.submitted_at, r.guaranteed_at, r.pair, r.shard))
            .collect()
    }

    /// At one shard every request reaches one controller with the same
    /// guarantee instants and stats as a direct drive, and the merge is
    /// the identity traversal, also where that controller's journal is
    /// not sorted by submission: the merged order and the persist
    /// windows are the journal's own order and in-flight filter.
    #[test]
    fn single_shard_matches_direct_controller_paths() {
        let cfg1 = cfg(1);
        let mut sharded = ShardedController::new(&cfg1);
        let mut direct = MemoryController::new(&cfg1, 0);
        let mut s1 = Stats::new(1);
        let mut s2 = Stats::new(1);
        let mut t = Time::from_ns(10);
        for i in 0..40u64 {
            let line = LineAddr(i * 5);
            let a = sharded.writeback(line, data(i), i % 2 == 0, t, &mut s1);
            let b = direct.writeback(line, data(i), i % 2 == 0, t, &mut s2);
            assert_eq!(a, b, "guarantee instants must match at shards=1");
            t += Time::from_ns(17);
        }
        assert_eq!(s1, s2, "stats must match at shards=1");
        assert_eq!(keys(sharded.merged()), keys(direct.journal()));
        // Persist line 195's dirty counter line while a pair to another
        // counter line is still being encrypted: the counter write-back
        // journals behind the pair but was submitted before it.
        sharded.writeback(LineAddr(1000), data(1), true, t, &mut s1);
        sharded.counter_writeback(LineAddr(195), t + Time::from_ns(1), &mut s1);
        let journal = sharded.shards[0].journal();
        assert!(
            journal
                .windows(2)
                .any(|w| w[1].submitted_at < w[0].submitted_at),
            "the journal must not be sorted by submission"
        );
        assert_eq!(keys(sharded.merged()), keys(journal));
        let windows: Vec<(Time, Time)> = journal
            .iter()
            .filter(|r| r.guaranteed_at > r.submitted_at)
            .map(|r| (r.submitted_at, r.guaranteed_at))
            .collect();
        assert_eq!(sharded.persist_windows(), windows);
    }

    #[test]
    fn routing_follows_shard_map() {
        let cfg4 = cfg(4);
        let mut sharded = ShardedController::new(&cfg4);
        let mut stats = Stats::new(1);
        // One write per shard: lines 0, 8, 16, 24 round-robin by
        // counter-line group.
        for g in 0..4u64 {
            sharded.writeback(
                LineAddr(g * 8),
                data(g),
                false,
                Time::from_ns(5),
                &mut stats,
            );
        }
        for (s, ctl) in sharded.shards.iter().enumerate() {
            assert!(
                ctl.journal().iter().all(|r| r.shard == s),
                "shard {s} journal must carry its own id"
            );
            assert!(
                ctl.journal_len() >= 1,
                "each shard must have received its write"
            );
        }
    }

    #[test]
    fn merged_journal_is_globally_ordered_and_complete() {
        let cfg2 = cfg(2);
        let mut sharded = ShardedController::new(&cfg2);
        let mut stats = Stats::new(1);
        let mut t = Time::from_ns(3);
        for i in 0..30u64 {
            sharded.writeback(LineAddr(i * 4), data(i), i % 3 == 0, t, &mut stats);
            t += Time::from_ns(11);
        }
        let merged: Vec<&JournalRecord> = sharded.merged().collect();
        assert_eq!(merged.len(), sharded.journal_len());
        for w in merged.windows(2) {
            assert!(
                (w[0].submitted_at, w[0].shard) <= (w[1].submitted_at, w[1].shard),
                "merge key must be non-decreasing"
            );
        }
        // The public key stream must visit the same sequence. (The
        // companion allocation-count assertion — the merge must stream
        // through O(shards) state, never a journal-proportional buffer
        // — lives in `tests/merge_streaming.rs`: hooking the allocator
        // needs `unsafe`, which this crate forbids.)
        let mut visited = Vec::new();
        sharded.for_each_merged_key(|at, shard| visited.push((at, shard)));
        let keys: Vec<_> = merged.iter().map(|r| (r.submitted_at, r.shard)).collect();
        assert_eq!(visited, keys);
    }

    #[test]
    fn bounded_merge_is_the_merge_of_journal_prefixes() {
        let mut sharded = ShardedController::new(&cfg(3));
        let mut stats = Stats::new(1);
        let mut t = Time::from_ns(3);
        let mut cuts = Vec::new();
        for i in 0..45u64 {
            sharded.writeback(LineAddr(i * 4), data(i), i % 2 == 0, t, &mut stats);
            t += Time::from_ns(7);
            if i % 9 == 4 {
                cuts.push(journal_lens(&sharded));
            }
        }
        let full: Vec<JournalRecord> = sharded.merged().cloned().collect();
        for cut in cuts {
            let bounded: Vec<(Time, usize)> = MergedJournal::new(
                sharded
                    .shards
                    .iter()
                    .zip(&cut)
                    .map(|(c, &n)| &c.journal()[..n])
                    .collect(),
            )
            .map(|r| (r.submitted_at, r.shard))
            .collect();
            // The merge is by key, so a prefix of every shard merges to
            // the subsequence of the full merge those prefixes contain.
            let mut seen = vec![0usize; cut.len()];
            let expect: Vec<(Time, usize)> = full
                .iter()
                .filter(|r| {
                    seen[r.shard] += 1;
                    seen[r.shard] <= cut[r.shard]
                })
                .map(|r| (r.submitted_at, r.shard))
                .collect();
            assert_eq!(bounded, expect);
        }
    }

    #[test]
    fn compaction_preserves_completion_image() {
        let cfg2 = cfg(2);
        let mut compacted = ShardedController::new(&cfg2);
        let mut reference = ShardedController::new(&cfg2);
        let mut s1 = Stats::new(1);
        let mut s2 = Stats::new(1);
        let mut t = Time::from_ns(2);
        for i in 0..60u64 {
            let line = LineAddr(i % 24 * 3);
            compacted.writeback(line, data(i), false, t, &mut s1);
            reference.writeback(line, data(i), false, t, &mut s2);
            if i % 10 == 9 {
                compacted.compact_through(t);
            }
            t += Time::from_ns(13);
        }
        assert!(compacted.compacted_records() > 0, "compaction must fire");
        assert_eq!(compacted.journal_len(), reference.journal_len());
        assert_eq!(
            compacted.build_image().fingerprint(),
            reference.build_image().fingerprint(),
            "folding a stable prefix must not change the completion image"
        );
    }

    /// Two shard journals that are not sorted by submission, with
    /// same-cell inversions: a later journal record submitted earlier
    /// than its predecessor, on a data line, a counter line, and a tree
    /// node that both shards write.
    fn unsorted_shard_journals() -> Vec<Vec<JournalRecord>> {
        use crate::addr::{CounterLineAddr, TreeNodeAddr};
        use crate::controller::JournalOp;
        use crate::crashmc::Domain;
        use crate::integrity::DigestLine;
        use nvmm_crypto::counter::CounterLine;
        use nvmm_crypto::Counter;
        let rec = |shard: usize, submitted_ns: u64, op: JournalOp| JournalRecord {
            submitted_at: Time::from_ns(submitted_ns),
            guaranteed_at: Time::from_ns(submitted_ns + 40),
            pair: None,
            domain: Domain::DataQueue,
            shard,
            op,
        };
        let plain = |line: u64, v: u8| JournalOp::Plain {
            line: LineAddr(line),
            data: data(v.into()),
        };
        let counters = |v: u64| {
            let mut cl = CounterLine::new();
            cl.set(1, Counter(v));
            JournalOp::CounterLine {
                cline: CounterLineAddr(0),
                counters: cl,
            }
        };
        let node = |v: u64| {
            let mut d = DigestLine::new();
            d.set(2, v);
            JournalOp::TreeNode {
                node: TreeNodeAddr { level: 1, index: 0 },
                digests: d,
            }
        };
        vec![
            vec![
                rec(0, 10, counters(1)),
                rec(0, 30, plain(0, 1)),
                rec(0, 20, counters(2)),
                rec(0, 25, node(1)),
                rec(0, 50, plain(0, 2)),
                rec(0, 45, plain(0, 3)),
                rec(0, 60, counters(3)),
                rec(0, 58, counters(4)),
            ],
            vec![
                rec(1, 15, node(2)),
                rec(1, 28, plain(8, 4)),
                rec(1, 22, node(3)),
                rec(1, 40, node(4)),
                rec(1, 35, plain(8, 5)),
                rec(1, 36, node(5)),
            ],
        ]
    }

    #[test]
    fn compacting_unsorted_journals_keeps_the_completion_image() {
        let journals = unsorted_shard_journals();
        let total: usize = journals.iter().map(Vec::len).sum();
        let reference = ShardedController::with_journals(journals.clone()).build_image();
        assert_eq!(reference.raw_data(LineAddr(0)), Some(data(3)));
        let mut compacted = ShardedController::with_journals(journals);
        // Records left per shard: each cut stops at the first record
        // submitted at or after the watermark, even where later records
        // were submitted before it.
        for (ns, left) in [
            (18, [7, 5]),
            (26, [7, 5]),
            (33, [4, 3]),
            (38, [4, 3]),
            (47, [4, 0]),
            (59, [2, 0]),
            (100, [0, 0]),
        ] {
            let w = Time::from_ns(ns);
            compacted.compact_through(w);
            assert_eq!(journal_lens(&compacted), left, "cut at {w}");
            assert_eq!(compacted.build_image(), reference, "compaction at {w}");
        }
        assert_eq!(compacted.compacted_records() as usize, total);
    }

    /// A panic on the compaction worker reaches whoever next needs its
    /// result, with the worker's own message — the reader waiting for
    /// the base image here, or a later hand-off.
    #[test]
    #[should_panic(expected = "injected fold failure")]
    fn compaction_worker_panic_resurfaces_on_the_reader() {
        let mut sharded = ShardedController::with_journals(unsorted_shard_journals());
        sharded.folding.get_mut().unwrap().worker =
            Some(CompactionWorker::spawn(Folded::new(), |_, _| {
                panic!("injected fold failure")
            }));
        sharded.compact_through(Time::from_ns(30));
        sharded.compact_through(Time::from_ns(60));
        let _ = sharded.build_image();
    }

    /// A cut hands each shard's journal buffer itself to the worker,
    /// which sends it back emptied; the next cut makes it a live
    /// journal again, capacity and all.
    #[test]
    fn compaction_recycles_journal_buffers() {
        let mut sharded = ShardedController::new(&cfg(2));
        let mut stats = Stats::new(1);
        let mut t = Time::from_ns(2);
        for round in 0..3u64 {
            for i in 0..40 {
                let line = LineAddr((round * 40 + i) % 48 * 3);
                sharded.writeback(line, data(i), false, t, &mut stats);
                t += Time::from_ns(13);
            }
            let spares = |s: &mut ShardedController| -> Vec<usize> {
                let folding = s.folding.get_mut().unwrap();
                folding.settle();
                folding.spares.iter().map(Vec::capacity).collect()
            };
            let before = spares(&mut sharded);
            sharded.compact_through(t);
            let live: Vec<usize> = sharded
                .shards
                .iter_mut()
                .map(|ctl| ctl.journal_mut().capacity())
                .collect();
            if round > 0 {
                assert_eq!(before.len(), 2, "round {round}: both buffers came back");
                assert!(
                    live.iter().all(|c| before.contains(c)),
                    "round {round}: live journals {live:?} are the returned buffers {before:?}"
                );
            }
            let after = spares(&mut sharded);
            assert_eq!(
                after.len(),
                2,
                "round {round}: the worker empties both prefixes"
            );
        }
        assert_eq!(sharded.journal_len(), 120);
    }

    #[test]
    #[should_panic(expected = "crash analysis unavailable")]
    fn crash_set_rejected_after_compaction() {
        let mut sharded = ShardedController::new(&cfg(2));
        let mut stats = Stats::new(1);
        for i in 0..20u64 {
            sharded.writeback(
                LineAddr(i * 2),
                data(i),
                false,
                Time::from_ns(1 + i * 20),
                &mut stats,
            );
        }
        sharded.compact_through(Time::from_ns(1_000_000));
        let _ = sharded.crash_set(Time::from_ns(50));
    }

    #[test]
    fn cache_slices_preserve_total_capacity_exactly() {
        let set_bytes = 16u64 * 64;
        let g = CacheGeometry {
            capacity_bytes: 1024 * 1024, // 1024 sets at 16 ways
            ways: 16,
            latency: Time::from_ns(1),
        };
        assert_eq!(slice_geometry(g, 0, 1), g);
        // Exact conservation for every shard count, powers of two or
        // not: the remainder sets land on the low-index shards, slices
        // differ by at most one set, and the sum equals the unsharded
        // capacity — no "up to rounding" tolerance.
        for n in [2usize, 3, 4, 5, 6, 7, 8] {
            let slices: Vec<CacheGeometry> = (0..n).map(|s| slice_geometry(g, s, n)).collect();
            let total: u64 = slices.iter().map(|s| s.capacity_bytes).sum();
            assert_eq!(
                total, g.capacity_bytes,
                "{n} slices must sum exactly to the unsharded capacity"
            );
            let (min, max) = (
                slices.iter().map(|s| s.capacity_bytes).min().unwrap(),
                slices.iter().map(|s| s.capacity_bytes).max().unwrap(),
            );
            assert!(max - min <= set_bytes, "slices differ by at most one set");
            for s in &slices {
                assert!(s.capacity_bytes >= set_bytes, "at least one set per slice");
                assert_eq!(s.capacity_bytes % set_bytes, 0, "whole sets only");
            }
            assert!(
                slices
                    .windows(2)
                    .all(|w| w[0].capacity_bytes >= w[1].capacity_bytes),
                "remainder sets go to low-index shards"
            );
        }
        // More shards than sets: the min-one-set floor still applies.
        let tiny = CacheGeometry {
            capacity_bytes: 2 * set_bytes,
            ways: 16,
            latency: Time::from_ns(1),
        };
        for s in 0..3 {
            assert_eq!(slice_geometry(tiny, s, 3).capacity_bytes % set_bytes, 0);
            assert!(slice_geometry(tiny, s, 3).capacity_bytes >= set_bytes);
        }
    }
}
