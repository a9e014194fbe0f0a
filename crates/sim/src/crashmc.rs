//! Adversarial crash-image enumeration: the model checker's view of a
//! power failure.
//!
//! ADR's contract has three regimes for a write at crash time `t`:
//!
//! * `guaranteed_at <= t` — the entry was resident with its ready bit
//!   set; ADR drains it. It is **in** every legal post-crash image.
//! * `submitted_at > t` — the write never reached the controller; it is
//!   in **no** legal image.
//! * `submitted_at <= t < guaranteed_at` — *in flight*. The hardware
//!   makes no promise: the entry may or may not have latched when power
//!   failed, so both outcomes are legal.
//!
//! A [`CrashSet`]'s [`baseline`](CrashSet::baseline) is one point of
//! that space (no in-flight entry lands — the most pessimistic drain),
//! and the crash image a run reports. The set exposes every *choice
//! group*: the data and counter records of one counter-atomic write
//! share a group — the ready-bit pairing of §5.2.2 means they land
//! atomically or not at all (FCA pairs never tear) — while each
//! unpaired plain write is a group of its own (SCA's plain data write
//! and its deferred counter write-back may tear).
//!
//! ## Serialization domains
//!
//! Choice groups are *not* independent booleans. Each guarantee point
//! is produced by one of four serialized mechanisms:
//!
//! * `Domain::Pairing` — the single ready-bit coordinator every
//!   counter-atomic pair handshakes through, one pair at a time;
//! * `Domain::DataQueue` / `Domain::CounterQueue` /
//!   `Domain::MetadataQueue` — FIFO slot acceptance into the plain
//!   data / counter / integrity-metadata write queues.
//!
//! Within one domain the guarantee points are totally ordered, so "a
//! later write latched but an earlier one did not" is physically
//! impossible: a legal image lands a **prefix** of each domain's
//! in-flight sequence. Distinct domains race independently. Dropping
//! the prefix rule produces images no hardware can emit — e.g. a later
//! pair's counter-line snapshot (which already embeds an earlier
//! pair's counter bump) landing without the earlier pair's data, which
//! would garble a line FCA in fact protects.
//!
//! Enumeration visits the image for every legal prefix combination,
//! with two bounds that keep the space tractable:
//!
//! * **Shadow pruning** — a choice group whose every write is later
//!   overwritten by a *guaranteed* full-line write to the same target
//!   cannot affect the final image; it is fixed instead of explored.
//! * **A cap with seeded sampling** — when the legal-image count
//!   exceeds [`EnumOpts::max_images`], a deterministic splitmix64
//!   stream samples prefix cuts (always including the all-miss and
//!   all-land corners), so results are bit-identical for a fixed seed
//!   and bound.
//!
//! Images identical at the line level (e.g. two cuts whose differing
//! entries coalesce to the same bytes) are deduplicated by
//! [`NvmmImage::fingerprint`].
//!
//! ## The fused delta walk
//!
//! Candidate images at one crash instant differ only in which in-flight
//! choice groups land. The one production enumerator,
//! [`CrashSet::walk_verified`], therefore never rebuilds an
//! image: an `ImageOverlay` starts from the set's guaranteed base image
//! and walks the cut schedule by applying/undoing only the ops of the
//! groups whose cut changed. Each image cell (a data line, a co-located
//! counter, a counter line, a MAC line, a tree node) tracks its
//! currently landed writers; the visible value is always the one with
//! the largest merge key — exactly what merged-order replay produces —
//! so the walked image is bit-identical to [`CrashSet::image`] of the
//! same mask at every step. The cells each step rewrote feed a warm
//! `DeltaVerifier`, which re-judges only what changed, so the
//! integrity verdict of every retained image comes out of the same walk.
//! The walk hands each retained image, with its mask and verdict, to a
//! caller's visitor where the overlay holds it, so the model checker
//! judges recovery in place and no image is cloned per retained mask;
//! [`CrashSet::enumerate_verified_timed`] is the same walk with a
//! visitor that copies the images out.
//!
//! ## One base image per sweep
//!
//! A [`CrashSet`] stores that base image rather than the journal, and
//! depends only on the journal and its instant, so a `CrashCursor` cuts
//! the sets of ascending crash instants from one run's complete journals
//! by time, incrementally: records are admitted as instants reach their
//! submission, folded into one carried base image as instants reach
//! their guarantee, and only the in-flight remainder is regrouped per
//! instant. A model-check worker advances one cursor through its run of
//! instants, so a crash set costs the records new since the previous
//! instant, not the whole journal before it. An advance writes each
//! base cell its folds changed once, from the cell's final writer,
//! however many of its records folded there. With
//! [`NvmmImage::fingerprint`] maintained incrementally inside the image,
//! one odometer step costs O(ops of the changed group) instead of
//! O(journal length).
//!
//! A crash set is walked on one thread: a model check's workers split
//! its crash instants, not the masks of one set. [`CrashSet::enumerate`]
//! materializes every mask's image from scratch with
//! [`CrashSet::image`]: it is the reference the differential suite holds
//! the walk against.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, NvmmTarget, TreeNodeAddr};
use crate::controller::{JournalOp, JournalRecord};
use crate::integrity::{DeltaVerifier, IntegritySpec};
use crate::nvmm::NvmmImage;
use crate::time::Time;
use fxhash::{FxHashMap, FxHashSet};
use nvmm_crypto::counter::{data_line_for, CounterSlot, COUNTERS_PER_LINE};
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacEngine;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The serialized hardware mechanism that produced a write's guarantee
/// point. In-flight landings are prefix-closed within a domain and
/// independent across domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Domain {
    /// The single ready-bit pairing coordinator (all CA pairs).
    Pairing,
    /// FIFO acceptance into the plain data write queue.
    DataQueue,
    /// FIFO acceptance into the plain counter write queue.
    CounterQueue,
    /// FIFO acceptance into the integrity-metadata (MAC/tree) write
    /// queue — plain metadata writes from metadata-cache evictions and
    /// `counter_cache_writeback()` flushes. Metadata records that ride
    /// in a counter-atomic write set belong to `Domain::Pairing`
    /// instead, like the pair they land with.
    MetadataQueue,
}

const DOMAINS: [Domain; 4] = [
    Domain::Pairing,
    Domain::DataQueue,
    Domain::CounterQueue,
    Domain::MetadataQueue,
];

/// Bounds for one enumeration. Identical opts over an identical
/// [`CrashSet`] yield identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOpts {
    /// Maximum number of landing masks to materialize. Full enumeration
    /// of the legal-prefix space when it fits, deterministic sampling
    /// beyond.
    pub max_images: usize,
    /// Seed for the sampling stream (unused when exhaustive).
    pub seed: u64,
}

impl Default for EnumOpts {
    fn default() -> Self {
        Self {
            max_images: 256,
            seed: 0xadc0_ffee,
        }
    }
}

/// Which in-flight choice groups land: bit `i` set means group `i`
/// persisted before power was lost.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LandMask {
    bits: Vec<u64>,
    len: usize,
}

impl LandMask {
    /// The all-miss mask (no in-flight entry lands) over `len` groups.
    pub fn zeros(len: usize) -> Self {
        Self {
            bits: vec![0; len.div_ceil(64).max(1)],
            len,
        }
    }

    /// The all-land mask over `len` groups.
    pub fn ones(len: usize) -> Self {
        let mut m = Self::zeros(len);
        for i in 0..len {
            m.set(i, true);
        }
        m
    }

    /// Whether group `i` lands.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets whether group `i` lands.
    pub fn set(&mut self, i: usize, land: bool) {
        let (w, b) = (i / 64, i % 64);
        if land {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    /// Number of groups covered by this mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero groups.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of the groups that land, ascending.
    pub fn landed(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }

    /// Number of groups that land.
    pub fn count_landed(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// splitmix64's Weyl increment — also used to random-access the
/// sampled-schedule stream ([`CutSchedule::cuts_into`]).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A journal record's place in the merged journal: `(running maximum of
/// submitted_at over its shard's journal up to it, shard, position in
/// that shard's journal)`. The shard journals' k-way merge always pops
/// the head with the smallest `(submitted_at, shard)`, which orders
/// records exactly by this key (see [`CrashCursor`]); on a journal
/// nondecreasing in `submitted_at` the running maximum is
/// `submitted_at` itself. A record's key depends only on the records
/// before it in its own shard, so it never changes as prefixes grow.
pub(crate) type MergeKey = (Time, usize, usize);

/// One in-flight write of a live choice group.
#[derive(Debug, Clone)]
struct Entry {
    key: MergeKey,
    /// The choice group: lands iff this mask bit is set.
    group: usize,
    op: JournalOp,
}

/// The set of NVMM images ADR permits for a crash at one instant.
#[derive(Debug, Clone)]
pub struct CrashSet {
    crash_time: Time,
    /// The guaranteed base image — the all-miss corner. Each cell holds
    /// its guaranteed writer with the largest merge key, which is what
    /// merged-order replay of the guaranteed writes leaves.
    base: NvmmImage,
    /// Journal records guaranteed at the crash instant (all in `base`).
    guaranteed: usize,
    /// In-flight writes of the live choice groups, in merge-key order.
    /// Writes of pruned groups never land, so they are not kept.
    entries: Vec<Entry>,
    /// For each cell an entry writes, the merge key of the cell's base
    /// writer (absent: none). An entry keyed below its cell's base
    /// writer never shows in that cell.
    base_writers: FxHashMap<CellKey, MergeKey>,
    /// Number of active (unpruned) choice groups.
    groups: usize,
    /// Choice groups eliminated by shadow pruning.
    pruned_groups: usize,
    /// Live group ids per serialization domain, in guarantee order; a
    /// legal mask lands a prefix of each list. One entry per
    /// (shard, [`DOMAINS`] member) in shard-major order — each sharded
    /// controller owns four independent serialization domains, and with
    /// one shard this is exactly the four [`DOMAINS`] lists. Lists may
    /// be empty.
    domain_order: Vec<Vec<usize>>,
}

/// Result of one bounded enumeration.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Line-level-distinct images with the (first) mask that produced
    /// each. The all-miss baseline is always `images[0]`.
    pub images: Vec<(LandMask, NvmmImage)>,
    /// Exploration accounting for reports and artifacts.
    pub stats: EnumStats,
}

/// Accounting for one enumeration, suitable for sweep-cell artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumStats {
    /// Active in-flight choice groups at the crash instant.
    pub groups: usize,
    /// Choice groups collapsed by the shadow prune.
    pub groups_pruned: usize,
    /// Serialization domains with at least one active group.
    pub domains: usize,
    /// Landing masks materialized (before image dedupe).
    pub masks_explored: u64,
    /// Line-level-distinct images among them.
    pub images_unique: usize,
    /// Masks whose image duplicated an already-seen fingerprint
    /// (`masks_explored - images_unique`).
    pub images_deduped: u64,
    /// Whether the full legal-prefix space was covered.
    pub exhaustive: bool,
}

impl CrashSet {
    /// Builds the crash state for a crash at `crash_time` from whole
    /// journals, one slice per shard in shard order: a fresh
    /// [`CrashCursor`] advanced once.
    pub(crate) fn from_journal(journals: &[&[JournalRecord]], crash_time: Time) -> Self {
        CrashCursor::new(journals.to_vec()).advance(crash_time)
    }

    /// Whether `key`'s write to `cell` shows over the cell's base
    /// writer.
    fn beats_base(&self, cell: CellKey, key: MergeKey) -> bool {
        self.base_writers.get(&cell).is_none_or(|&w| key > w)
    }

    /// The crash instant this set models.
    pub fn crash_time(&self) -> Time {
        self.crash_time
    }

    /// Number of active in-flight choice groups (mask bits).
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Choice groups collapsed by the shadow prune.
    pub fn pruned_groups(&self) -> usize {
        self.pruned_groups
    }

    /// Serialization domains with at least one active group.
    pub fn domain_count(&self) -> usize {
        self.domain_order.iter().filter(|d| !d.is_empty()).count()
    }

    /// Journal entries guaranteed at the crash instant.
    pub fn guaranteed_len(&self) -> usize {
        self.guaranteed
    }

    /// In-flight journal entries still subject to choice.
    pub fn in_flight_len(&self) -> usize {
        self.entries.len()
    }

    /// The guaranteed base image: the all-miss corner every legal image
    /// of the set starts from. [`CrashSet::baseline`] is a clone of it.
    pub fn base(&self) -> &NvmmImage {
        &self.base
    }

    /// The data lines, sorted and distinct, whose decrypted read
    /// ([`NvmmImage::read_line`], with or without a recovery window) can
    /// differ between the set's images. A read depends on the line's
    /// data cell, its co-located counter and its counter line, so these
    /// are the lines of the in-flight data and co-located writes plus
    /// all eight lines each in-flight counter-line write covers. MAC and
    /// tree cells do not feed the read, and a write that never shows
    /// over its cell's base writer cannot change it. Every line outside
    /// this list reads in every image of the set exactly as it reads in
    /// [`CrashSet::base`].
    pub fn in_flight_lines(&self) -> Vec<LineAddr> {
        let mut lines = Vec::new();
        for e in &self.entries {
            for cell in op_cells(&e.op).filter(|&cell| self.beats_base(cell, e.key)) {
                match cell {
                    CellKey::Data(l) | CellKey::Co(l) => lines.push(l),
                    CellKey::Ctr(c) => lines.extend((0..COUNTERS_PER_LINE).map(|slot| {
                        LineAddr(data_line_for(CounterSlot {
                            counter_line: c.0,
                            slot,
                        }))
                    })),
                    CellKey::Mac(_) | CellKey::Tree(_) => {}
                }
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Number of legal images before dedupe: the product over domains of
    /// (in-flight groups + 1), saturating.
    pub fn legal_images(&self) -> u64 {
        self.domain_order
            .iter()
            .map(|d| d.len() as u64 + 1)
            .try_fold(1u64, |a, b| a.checked_mul(b))
            .unwrap_or(u64::MAX)
    }

    /// Whether `mask` is an image the hardware could emit: within every
    /// serialization domain the landed groups form a prefix of the
    /// guarantee order.
    pub fn is_legal(&self, mask: &LandMask) -> bool {
        self.domain_order.iter().all(|order| {
            let prefix = order.iter().take_while(|&&g| mask.get(g)).count();
            order[prefix..].iter().all(|&g| !mask.get(g))
        })
    }

    /// The mask landing the first `cuts[d]` groups of each domain.
    fn mask_from_cuts(&self, cuts: &[usize]) -> LandMask {
        let mut m = LandMask::zeros(self.groups);
        for (order, &cut) in self.domain_order.iter().zip(cuts) {
            for &g in &order[..cut] {
                m.set(g, true);
            }
        }
        m
    }

    /// Writes into `out` (cleared first) the masks one legal step smaller
    /// than `mask`: each candidate clears the last landed group of one
    /// domain. Greedy descent over these stays inside the legal-image
    /// space (unlike clearing arbitrary bits). The caller owns the
    /// buffer, so a minimization loop reuses one allocation across its
    /// descent.
    pub fn shrink_candidates_into(&self, mask: &LandMask, out: &mut Vec<LandMask>) {
        out.clear();
        for order in &self.domain_order {
            let prefix = order.iter().take_while(|&&g| mask.get(g)).count();
            if prefix == 0 {
                continue;
            }
            let mut m = mask.clone();
            m.set(order[prefix - 1], false);
            out.push(m);
        }
    }

    /// Materializes the image for one landing mask: the base image with
    /// the landed in-flight writes applied in merge-key order, each cell
    /// keeping its largest-key writer — what merged-order replay of the
    /// surviving writes leaves.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not cover exactly [`CrashSet::group_count`]
    /// groups.
    pub fn image(&self, mask: &LandMask) -> NvmmImage {
        assert_eq!(mask.len(), self.groups, "mask/group arity mismatch");
        let mut img = self.base.clone();
        for e in self.entries.iter().filter(|e| mask.get(e.group)) {
            for cell in op_cells(&e.op) {
                if self.beats_base(cell, e.key) {
                    write_cell(&mut img, cell, &e.op);
                }
            }
        }
        img
    }

    /// The ADR-pessimistic baseline (no in-flight entry lands): every
    /// write guaranteed by `crash_time`, each cell keeping its last
    /// writer in merged journal order. This is the crash image
    /// [`crate::system::RunOutcome::image`] reports.
    pub fn baseline(&self) -> NvmmImage {
        self.image(&LandMask::zeros(self.groups))
    }

    /// The cut schedule `opts` prescribes: every legal prefix
    /// combination in odometer order (domain 0 fastest) when the space
    /// fits the cap, else the two corners followed by the seeded
    /// splitmix64 stream. The fused walk and the reference
    /// [`CrashSet::enumerate`] both walk this same schedule, so their
    /// explored masks are identical by construction. The schedule is a
    /// *decoder*, not a table — each
    /// mask's cut vector is computed on demand into a caller buffer
    /// ([`CutSchedule::cuts_into`]), so an exhaustive run over millions
    /// of legal images holds O(domains) schedule state, not
    /// O(images × domains).
    pub fn cut_schedule(&self, opts: EnumOpts) -> CutSchedule {
        let cap = opts.max_images.max(1) as u64;
        let total = self.legal_images();
        let exhaustive = total <= cap;
        let dims: Vec<usize> = self.domain_order.iter().map(Vec::len).collect();
        let n_masks = if exhaustive {
            total as usize
        } else {
            cap.max(2) as usize
        };
        CutSchedule {
            dims,
            n_masks,
            exhaustive,
            seed: opts.seed,
        }
    }

    fn stats_for(&self, sched: &CutSchedule, images_unique: usize) -> EnumStats {
        let masks_explored = sched.n_masks as u64;
        EnumStats {
            groups: self.groups,
            groups_pruned: self.pruned_groups,
            domains: self.domain_count(),
            masks_explored,
            images_unique,
            images_deduped: masks_explored - images_unique as u64,
            exhaustive: sched.exhaustive,
        }
    }

    /// How many dedupe-set slots to pre-size for `opts`.
    fn seen_capacity(&self, opts: EnumOpts) -> usize {
        self.legal_images().min(opts.max_images.max(1) as u64) as usize
    }

    /// Enumerates the legal post-crash images within `opts`' bounds by
    /// materializing a fresh image with [`CrashSet::image`] for every
    /// mask of the cut schedule, sequentially. It is the obviously
    /// correct reference: the model checker runs the fused walk
    /// ([`CrashSet::walk_verified`]), and the differential tests hold
    /// that walk's masks, images and stats against this.
    pub fn enumerate(&self, opts: EnumOpts) -> Enumeration {
        let sched = self.cut_schedule(opts);
        let mut seen: FxHashSet<u128> = FxHashSet::default();
        seen.reserve(self.seen_capacity(opts));
        let mut images: Vec<(LandMask, NvmmImage)> = Vec::new();
        let mut cuts = Vec::with_capacity(sched.n_domains());
        for i in 0..sched.n_masks {
            sched.cuts_into(i, &mut cuts);
            let mask = self.mask_from_cuts(&cuts);
            let img = self.image(&mask);
            if seen.insert(img.fingerprint()) {
                images.push((mask, img));
            }
        }
        Enumeration {
            stats: self.stats_for(&sched, images.len()),
            images,
        }
    }

    /// Walks the legal images within `opts`' bounds, judges each against
    /// `spec`'s integrity oracle, and hands every retained image to
    /// `visit` where the walk left it. The model checker's one
    /// enumeration path; it runs on the calling thread.
    ///
    /// One `ImageOverlay` walks the schedule beside one `DeltaVerifier`,
    /// accumulating the cells each `goto` dirtied into a pending set and
    /// flushing them into the verifier only when a fingerprint is newly
    /// retained — most schedule steps land on already-seen images whose
    /// verdict is never read, so their re-checks would be pure waste.
    /// The deferral is sound because every re-check is a pure function
    /// of the *current* image state: as long as each cell that changed
    /// since the last flush is replayed once before the verdict is read,
    /// the verifier converges to the same state in any flush order. For
    /// each retained image the walk calls `visit(mask, image, verdict)`
    /// on the overlay's own mask and image — no copy — and keeps the
    /// result.
    ///
    /// The retained images and the stats equal [`CrashSet::enumerate`]'s,
    /// and the returned `i`-th result is `visit` of its `i`-th image —
    /// with a verdict bit-identical to
    /// [`verify_image`](crate::integrity::verify_image) on the
    /// materialized image. Result 0 is the all-miss corner. The third
    /// return is the wall-clock nanoseconds the walk spent in its verify
    /// phase (flushing dirty cells into the verifier and reading
    /// verdicts). Enumeration work — schedule decode, overlay `goto`,
    /// fingerprint dedupe — and `visit` are excluded, so the figure
    /// isolates what incremental re-verification costs and is directly
    /// comparable to a timed full-pass verify of the same images. It
    /// belongs in timing companions, never in deterministic artifacts.
    pub fn walk_verified<T>(
        &self,
        opts: EnumOpts,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
        mut visit: impl FnMut(&LandMask, &NvmmImage, &Result<(), String>) -> T,
    ) -> (EnumStats, Vec<T>, u64) {
        let sched = self.cut_schedule(opts);
        let mut overlay = ImageOverlay::new(self);
        let mut verifier = DeltaVerifier::new(overlay.image(), spec, engine, mac_engine);
        let mut seen: FxHashSet<u128> = FxHashSet::default();
        seen.reserve(self.seen_capacity(opts));
        let mut kept = Vec::new();
        let mut cuts = Vec::with_capacity(sched.n_domains());
        // Cells dirtied since the verifier last synced, deduped (a cell
        // that toggled five times between retained images needs exactly
        // one re-check against the current image).
        let mut pending: Vec<CellKey> = Vec::new();
        let mut pending_set: FxHashSet<CellKey> = FxHashSet::default();
        let mut verify_ns: u64 = 0;
        for i in 0..sched.n_masks() {
            sched.cuts_into(i, &mut cuts);
            overlay.goto(&cuts);
            for &cell in overlay.dirty() {
                // A co-located counter rewrite changes how its data line
                // decrypts — same re-check as the data half.
                let cell = match cell {
                    CellKey::Co(l) => CellKey::Data(l),
                    other => other,
                };
                if pending_set.insert(cell) {
                    pending.push(cell);
                }
            }
            if seen.insert(overlay.image().fingerprint()) {
                let t0 = Instant::now();
                for &cell in &pending {
                    verifier.changed(overlay.image(), cell);
                }
                pending.clear();
                pending_set.clear();
                let verdict = verifier.verdict();
                verify_ns += t0.elapsed().as_nanos() as u64;
                kept.push(visit(overlay.mask(), overlay.image(), &verdict));
            }
        }
        (self.stats_for(&sched, kept.len()), kept, verify_ns)
    }

    /// [`CrashSet::walk_verified`] with a visitor that copies out every
    /// retained image: the enumeration ([`CrashSet::enumerate`]'s masks,
    /// images and stats), each image's integrity verdict, and the walk's
    /// verify nanoseconds. The model checker judges images in place
    /// instead; this serves the tests and the timing binaries that need
    /// the images themselves. The walk runs on the calling thread;
    /// `threads` exists only so callers that pass 1 still build.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is not 1.
    pub fn enumerate_verified_timed(
        &self,
        opts: EnumOpts,
        threads: usize,
        spec: IntegritySpec,
        engine: &EncryptionEngine,
        mac_engine: &MacEngine,
    ) -> (Enumeration, Vec<Result<(), String>>, u64) {
        assert_eq!(
            threads, 1,
            "a crash set is walked on one thread; 1 is the only worker count"
        );
        let (stats, walked, verify_ns) =
            self.walk_verified(opts, spec, engine, mac_engine, |mask, img, verdict| {
                ((mask.clone(), img.clone()), verdict.clone())
            });
        let (images, verdicts) = walked.into_iter().unzip();
        (Enumeration { images, stats }, verdicts, verify_ns)
    }
}

/// A cut schedule over the choice domains of a [`CrashSet`]: `n_masks`
/// cut vectors of one prefix length per domain, decoded on demand.
///
/// The schedule stores only the per-domain radices (`dims`), the mask
/// count, and the sampling seed — O(domains) resident memory no matter
/// how many masks it prescribes. [`CutSchedule::cuts_into`] decodes any
/// mask index directly: mixed-radix (domain 0 fastest) when exhaustive,
/// or a random-access jump into the seeded splitmix64 stream when
/// sampled, bit-identical to walking the stream sequentially.
#[derive(Debug, Clone)]
pub struct CutSchedule {
    dims: Vec<usize>,
    n_masks: usize,
    exhaustive: bool,
    seed: u64,
}

impl CutSchedule {
    /// Number of cut vectors (masks) the schedule prescribes.
    pub fn n_masks(&self) -> usize {
        self.n_masks
    }

    /// Number of choice domains per cut vector.
    pub fn n_domains(&self) -> usize {
        self.dims.len()
    }

    /// Whether the schedule covers every legal image (odometer order)
    /// rather than a seeded sample.
    pub fn exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Decodes the `i`-th cut vector into `out` (cleared first). Panics
    /// if `i >= n_masks()`.
    pub fn cuts_into(&self, i: usize, out: &mut Vec<usize>) {
        assert!(i < self.n_masks, "mask index {i} out of schedule");
        out.clear();
        if self.exhaustive {
            // Mixed-radix decode, least-significant domain first —
            // exactly the order the original odometer visited.
            let mut rem = i as u64;
            for &k in &self.dims {
                let radix = k as u64 + 1;
                out.push((rem % radix) as usize);
                rem /= radix;
            }
        } else if i == 0 {
            // Corner: the all-miss image.
            out.extend(std::iter::repeat_n(0, self.dims.len()));
        } else if i == 1 {
            // Corner: the all-land image.
            out.extend(self.dims.iter().copied());
        } else {
            // Jump the splitmix64 stream to the draw this row starts
            // at: the state before draw `p` of a sequential walk from
            // `seed` is `seed + GAMMA * p`, so seeking is one multiply.
            let p = ((i - 2) * self.dims.len()) as u64;
            let mut state = self.seed.wrapping_add(GAMMA.wrapping_mul(p));
            for &k in &self.dims {
                out.push((splitmix64(&mut state) % (k as u64 + 1)) as usize);
            }
        }
    }
}

/// The cell granularity images are built at — by the overlay applying
/// and undoing writes, and by [`fold_last_writers`]: one key per
/// independently-overwritable image entry. A [`JournalOp`]
/// touches one cell, except a co-located write (data cell plus
/// co-located-counter cell) and a packed-metadata write (counter-line
/// cell plus MAC-line cell — the packed line is one write on the
/// device but materializes both split-region entries in the image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CellKey {
    Data(LineAddr),
    Co(LineAddr),
    Ctr(CounterLineAddr),
    Mac(MacLineAddr),
    Tree(TreeNodeAddr),
}

/// The cells `op` writes: its primary cell, then the co-located counter
/// half or the packed MAC half, if any.
fn op_cells(op: &JournalOp) -> impl Iterator<Item = CellKey> {
    let (primary, second) = match op {
        JournalOp::Plain { line, .. } | JournalOp::Encrypted { line, .. } => {
            (CellKey::Data(*line), None)
        }
        JournalOp::CoLocated { line, .. } => (CellKey::Data(*line), Some(CellKey::Co(*line))),
        JournalOp::CounterLine { cline, .. } => (CellKey::Ctr(*cline), None),
        JournalOp::MacLine { mline, .. } => (CellKey::Mac(*mline), None),
        JournalOp::TreeNode { node, .. } => (CellKey::Tree(*node), None),
        JournalOp::PackedMeta { cline, .. } => (
            CellKey::Ctr(*cline),
            Some(CellKey::Mac(MacLineAddr(cline.0))),
        ),
    };
    std::iter::once(primary).chain(second)
}

/// Writes the `key` half of `op` into `img`. The data half of a
/// co-located write is exactly a `write_encrypted` — the widened line's
/// payload and ground-truth counter — while its counter half lands via
/// the cell-granular co-located setter.
fn write_cell(img: &mut NvmmImage, key: CellKey, op: &JournalOp) {
    match (key, op) {
        (CellKey::Data(_), JournalOp::Plain { line, data }) => img.write_plain(*line, *data),
        (
            CellKey::Data(_),
            JournalOp::Encrypted {
                line,
                ciphertext,
                counter,
            }
            | JournalOp::CoLocated {
                line,
                ciphertext,
                counter,
            },
        ) => img.write_encrypted(*line, *ciphertext, *counter),
        (CellKey::Co(_), JournalOp::CoLocated { line, counter, .. }) => {
            img.write_co_located_counter(*line, *counter)
        }
        (CellKey::Ctr(_), JournalOp::CounterLine { cline, counters }) => {
            img.write_counter_line(*cline, *counters)
        }
        (
            CellKey::Ctr(_),
            JournalOp::PackedMeta {
                cline, counters, ..
            },
        ) => img.write_counter_line(*cline, *counters),
        (CellKey::Mac(_), JournalOp::PackedMeta { cline, macs, .. }) => {
            img.write_mac_line(MacLineAddr(cline.0), **macs)
        }
        (CellKey::Mac(_), JournalOp::MacLine { mline, macs }) => img.write_mac_line(*mline, *macs),
        (CellKey::Tree(_), JournalOp::TreeNode { node, digests }) => {
            img.write_tree_node(*node, *digests)
        }
        _ => unreachable!("journal op does not write this cell"),
    }
}

/// Folds journal writes, given in merged order, into `img`: each cell
/// they touch is written once, from its last writer. That is what
/// applying the writes one after another leaves, for one image write
/// per cell instead of per write. Cells are written in first-touch
/// order, so the image's maps see the same insertions as they would op
/// by op. Image construction and batched-journal compaction both go
/// through here, into untracked images: image construction seals the
/// result once ([`NvmmImage::seal`]), and the compaction base is never
/// fingerprinted at all.
pub(crate) fn fold_last_writers<'a>(
    img: &mut NvmmImage,
    ops: impl IntoIterator<Item = &'a JournalOp>,
) {
    let mut slot_of: FxHashMap<CellKey, usize> = FxHashMap::default();
    let mut last: Vec<(CellKey, &JournalOp)> = Vec::new();
    for op in ops {
        for cell in op_cells(op) {
            let next = last.len();
            let slot = *slot_of.entry(cell).or_insert(next);
            if slot == next {
                last.push((cell, op));
            } else {
                last[slot].1 = op;
            }
        }
    }
    for (cell, op) in last {
        write_cell(img, cell, op);
    }
}

/// An incrementally maintained candidate image for one [`CrashSet`].
///
/// Construction clones the set's base image (the all-miss corner);
/// [`ImageOverlay::goto`] then moves between cut vectors by
/// applying/undoing only the ops of the choice groups whose cut
/// changed. Each cell an in-flight write can show in tracks its landed
/// writers; the visible value is the largest-key one, or the base value
/// when none has landed — the same winner merged-order replay produces.
/// The delta verifier reads the current image through
/// [`ImageOverlay::image`] and the cells each move changed through
/// [`ImageOverlay::dirty`], and the walk's visitor judges each newly
/// retained image right there: no image is cloned per retained mask.
pub(crate) struct ImageOverlay<'a> {
    set: &'a CrashSet,
    img: NvmmImage,
    /// Per cell: the landed entry indices (ascending, so ascending in
    /// merge key) of writes that beat the cell's base writer. Tiny in
    /// practice (a cell is touched by few in-flight groups at once).
    landed: Vec<Vec<usize>>,
    cell_keys: Vec<CellKey>,
    /// `(cell, entry index)` touches of each choice group, in merge-key
    /// order. Writes keyed below their cell's base writer never show,
    /// so they are left out.
    group_touches: Vec<Vec<(usize, usize)>>,
    cuts: Vec<usize>,
    mask: LandMask,
    /// Cells whose image value was rewritten or cleared by the latest
    /// [`ImageOverlay::goto`] (may contain duplicates) — the delta
    /// verifier's feed.
    dirty: Vec<CellKey>,
}

impl<'a> ImageOverlay<'a> {
    /// Clones the base image (the all-miss corner) and builds the
    /// per-cell/per-group indexes the walk needs, in O(in-flight
    /// writes).
    pub(crate) fn new(set: &'a CrashSet) -> Self {
        let mut cell_ids: FxHashMap<CellKey, usize> = FxHashMap::default();
        let mut cell_keys: Vec<CellKey> = Vec::new();
        let mut group_touches: Vec<Vec<(usize, usize)>> = vec![Vec::new(); set.groups];
        for (i, e) in set.entries.iter().enumerate() {
            for cell in op_cells(&e.op).filter(|&cell| set.beats_base(cell, e.key)) {
                let id = *cell_ids.entry(cell).or_insert_with(|| {
                    cell_keys.push(cell);
                    cell_keys.len() - 1
                });
                group_touches[e.group].push((id, i));
            }
        }
        Self {
            img: set.base.clone(),
            landed: vec![Vec::new(); cell_keys.len()],
            cell_keys,
            group_touches,
            cuts: vec![0; set.domain_order.len()],
            mask: LandMask::zeros(set.groups),
            dirty: Vec::new(),
            set,
        }
    }

    /// Cells the latest [`ImageOverlay::goto`] rewrote or cleared
    /// (duplicates possible when several groups rewrote one cell).
    pub(crate) fn dirty(&self) -> &[CellKey] {
        &self.dirty
    }

    /// The current candidate image. Valid for the cut vector of the
    /// latest [`ImageOverlay::goto`] (initially the all-miss corner).
    pub(crate) fn image(&self) -> &NvmmImage {
        &self.img
    }

    /// The landing mask matching [`ImageOverlay::image`].
    pub(crate) fn mask(&self) -> &LandMask {
        &self.mask
    }

    /// Lands choice group `g`: every touched cell gains `g`'s writer
    /// indices, rewriting the cell when one becomes the new winner.
    fn apply_group(&mut self, g: usize) {
        self.mask.set(g, true);
        for t in 0..self.group_touches[g].len() {
            let (cell, entry) = self.group_touches[g][t];
            let landed = &mut self.landed[cell];
            let shows = landed.last().is_none_or(|&w| entry > w);
            if let Err(pos) = landed.binary_search(&entry) {
                landed.insert(pos, entry);
            }
            if shows {
                let key = self.cell_keys[cell];
                write_cell(&mut self.img, key, &self.set.entries[entry].op);
                self.dirty.push(key);
            }
        }
    }

    /// Reverts choice group `g`: cells that lose their winning writer
    /// are rewritten from the next-highest landed writer, or restored
    /// to their base value when none remains.
    fn undo_group(&mut self, g: usize) {
        self.mask.set(g, false);
        for t in 0..self.group_touches[g].len() {
            let (cell, entry) = self.group_touches[g][t];
            let landed = &mut self.landed[cell];
            let showed = landed.last() == Some(&entry);
            if let Ok(pos) = landed.binary_search(&entry) {
                landed.remove(pos);
            }
            if showed {
                let key = self.cell_keys[cell];
                match landed.last() {
                    Some(&w) => write_cell(&mut self.img, key, &self.set.entries[w].op),
                    None => self.img.copy_cell(&self.set.base, key),
                }
                self.dirty.push(key);
            }
        }
    }

    /// Moves the overlay to `target` cuts, applying/undoing exactly the
    /// groups whose domain prefix changed.
    pub(crate) fn goto(&mut self, target: &[usize]) {
        debug_assert_eq!(target.len(), self.cuts.len());
        self.dirty.clear();
        for (d, &tgt) in target.iter().enumerate() {
            let cur = self.cuts[d];
            if tgt > cur {
                for k in cur..tgt {
                    self.apply_group(self.set.domain_order[d][k]);
                }
            } else {
                for k in (tgt..cur).rev() {
                    self.undo_group(self.set.domain_order[d][k]);
                }
            }
            self.cuts[d] = tgt;
        }
    }
}

/// Journal records per entry of [`submission_floors`].
const FLOOR_STRIDE: usize = 64;

/// The suffix minimum of `journal`'s `submitted_at` at every
/// [`FLOOR_STRIDE`]th position: entry `k` is the earliest submission at
/// or after position `k * FLOOR_STRIDE`. It never decreases.
fn submission_floors(journal: &[JournalRecord]) -> Vec<Time> {
    let mut floors: Vec<Time> = journal
        .chunks(FLOOR_STRIDE)
        .map(|c| c.iter().map(|r| r.submitted_at).min().expect("a chunk"))
        .collect();
    for k in (1..floors.len()).rev() {
        floors[k - 1] = floors[k - 1].min(floors[k]);
    }
    floors
}

/// Per target, the largest merge keys of the guaranteed writes that can
/// shadow an in-flight write there ([`JournalOp::covers`]): any write
/// covers a non-co-located one; only a co-located write covers a
/// co-located one.
#[derive(Debug, Clone, Copy)]
struct Cover {
    any: MergeKey,
    co_located: Option<MergeKey>,
}

/// Builds the [`CrashSet`]s of a nondecreasing sequence of crash
/// instants over one set of complete shard journals, carrying one
/// guaranteed base image from each instant to the next instead of
/// replaying the journal every time.
///
/// [`CrashCursor::advance`] to `t` passes each shard's journal up to its
/// cut, the first multiple of [`FLOOR_STRIDE`] from which every record is
/// submitted after `t`, found by a binary search over the journal's
/// [`submission_floors`]. A passed record submitted by `t` is admitted;
/// one submitted after it waits in a min-heap until an instant reaches
/// its submission. An admitted record guaranteed by `t` is folded into
/// the base at once; any other waits in a min-heap on `guaranteed_at`
/// and is folded when an instant reaches it. A fold only moves its
/// cells' base writers; the advance then writes each cell whose writer
/// moved once, from its final writer, in the order the folds first moved
/// them. What the heap still holds is the instant's in-flight set; the
/// choice groups, the shadow prune and the domain orders are derived
/// from it alone, in merge-key order. An advance costs one binary search
/// per shard, the newly passed records, plus one write per changed base
/// cell, plus the in-flight set, plus one clone of the base image. It is
/// exact because:
///
/// * every record past a shard's cut is submitted after `t`, so the
///   admitted records are exactly the records submitted by `t`, which
///   are all ADR's contract lets a crash at `t` keep; the cut only keeps
///   all but fewer than [`FLOOR_STRIDE`] later records per shard out of
///   the heap;
/// * a cell's base value is its guaranteed writer with the largest merge
///   key, so the order in which writes become guaranteed is irrelevant,
///   and writing a cell once from its final writer leaves what writing
///   it at every fold would; cells are written in the order they first
///   moved, and a cell new to the base moves at its first fold, so the
///   image's maps see the same insertions in the same order;
/// * a [`MergeKey`] depends only on earlier records of the same shard, so
///   keys stay put as the cuts grow, and ascending keys are the order the
///   k-way merge of the journals produces — its heap pops the head with
///   the smallest `(submitted_at, shard)`, which is always the head with
///   the smallest `(running max, shard)`: a head below its shard's
///   running maximum follows a record popped ahead of every other shard's
///   head at the time, and their running maxima only grow;
/// * instants, and so the cuts, are nondecreasing, so every admitted or
///   folded record stays admitted or folded.
pub(crate) struct CrashCursor<'a> {
    journals: Vec<&'a [JournalRecord]>,
    /// Per shard: its [`submission_floors`], which never decrease, so a
    /// binary search finds an instant's cut. One entry per
    /// [`FLOOR_STRIDE`] records keeps them small enough to build per
    /// cursor.
    floors: Vec<Vec<Time>>,
    /// Per shard: records passed so far, and the running maximum of
    /// their `submitted_at`.
    passed: Vec<(usize, Time)>,
    time: Time,
    /// Passed records submitted after `time`: a min-heap on
    /// `(submitted_at, key)`. A shard journal is not sorted by
    /// submission (a counter write-back goes out while an earlier data
    /// write is still being encrypted), so a cut can hold records
    /// submitted after its instant.
    unsubmitted: BinaryHeap<Reverse<(Time, MergeKey)>>,
    /// Admitted records not yet guaranteed: a min-heap on
    /// `(guaranteed_at, key)`.
    in_flight: BinaryHeap<Reverse<(Time, MergeKey)>>,
    base: NvmmImage,
    /// Merge key of each base cell's writer.
    base_writers: FxHashMap<CellKey, MergeKey>,
    /// Base cells whose writer moved in the current advance, in the
    /// order they first moved, and the same cells as a set: written out
    /// once each before the advance returns.
    moved: Vec<CellKey>,
    moved_set: FxHashSet<CellKey>,
    covers: FxHashMap<NvmmTarget, Cover>,
    guaranteed: usize,
    /// Highest shard id among the admitted records.
    max_shard: usize,
}

impl<'a> CrashCursor<'a> {
    /// A cursor before any instant, over one complete journal per shard.
    pub(crate) fn new(journals: Vec<&'a [JournalRecord]>) -> Self {
        let floors = journals.iter().map(|j| submission_floors(j)).collect();
        Self {
            passed: vec![(0, Time::ZERO); journals.len()],
            journals,
            floors,
            time: Time::ZERO,
            unsubmitted: BinaryHeap::new(),
            in_flight: BinaryHeap::new(),
            base: NvmmImage::new(),
            base_writers: FxHashMap::default(),
            moved: Vec::new(),
            moved_set: FxHashSet::default(),
            covers: FxHashMap::default(),
            guaranteed: 0,
            max_shard: 0,
        }
    }

    fn record(&self, key: MergeKey) -> &'a JournalRecord {
        let journal: &'a [JournalRecord] = self.journals[key.1];
        &journal[key.2]
    }

    /// Advances to a crash at `t` and returns that instant's crash set.
    ///
    /// # Panics
    ///
    /// Panics if `t` is below the previous advance's instant.
    pub(crate) fn advance(&mut self, t: Time) -> CrashSet {
        assert!(t >= self.time, "crash instants must not decrease");
        self.time = t;
        for s in 0..self.journals.len() {
            let journal: &'a [JournalRecord] = self.journals[s];
            let (start, mut running) = self.passed[s];
            let blocks = self.floors[s].partition_point(|&at| at <= t);
            let end = (blocks * FLOOR_STRIDE).min(journal.len());
            for (pos, rec) in journal[start..end].iter().enumerate() {
                running = running.max(rec.submitted_at);
                let key = (running, s, start + pos);
                if rec.submitted_at <= t {
                    self.admit(rec, key);
                } else {
                    self.unsubmitted.push(Reverse((rec.submitted_at, key)));
                }
            }
            self.passed[s] = (end, running);
        }
        while let Some(&Reverse((at, key))) = self.unsubmitted.peek() {
            if at > t {
                break;
            }
            self.unsubmitted.pop();
            self.admit(self.record(key), key);
        }
        while let Some(&Reverse((at, key))) = self.in_flight.peek() {
            if at > t {
                break;
            }
            self.in_flight.pop();
            self.fold(self.record(key), key);
        }
        for cell in std::mem::take(&mut self.moved) {
            let op = &self.record(self.base_writers[&cell]).op;
            write_cell(&mut self.base, cell, op);
        }
        self.moved_set.clear();
        self.crash_set()
    }

    /// Takes in a record submitted by the current instant.
    fn admit(&mut self, rec: &JournalRecord, key: MergeKey) {
        self.max_shard = self.max_shard.max(rec.shard);
        if rec.guaranteed_at <= self.time {
            self.fold(rec, key);
        } else {
            self.in_flight.push(Reverse((rec.guaranteed_at, key)));
        }
    }

    /// Folds a guaranteed record into the base: each cell it writes
    /// takes it as writer unless a larger-key write is already there,
    /// and waits for [`CrashCursor::advance`] to write its value.
    fn fold(&mut self, rec: &JournalRecord, key: MergeKey) {
        self.guaranteed += 1;
        for cell in op_cells(&rec.op) {
            let writer = self.base_writers.entry(cell).or_insert(key);
            if *writer <= key {
                *writer = key;
                if self.moved_set.insert(cell) {
                    self.moved.push(cell);
                }
            }
        }
        let co_located = matches!(rec.op, JournalOp::CoLocated { .. }).then_some(key);
        self.covers
            .entry(rec.op.target())
            .and_modify(|c| {
                c.any = c.any.max(key);
                c.co_located = c.co_located.max(co_located);
            })
            .or_insert(Cover {
                any: key,
                co_located,
            });
    }

    /// Whether a guaranteed write later in merged order fully
    /// overwrites `op` ([`JournalOp::covers`]) — then `op` cannot
    /// influence any image.
    fn shadowed(&self, op: &JournalOp, key: MergeKey) -> bool {
        self.covers.get(&op.target()).is_some_and(|c| {
            let later = match op {
                JournalOp::CoLocated { .. } => c.co_located,
                _ => Some(c.any),
            };
            later.is_some_and(|k| k > key)
        })
    }

    /// The crash set at the current instant: a clone of the base plus
    /// the choice structure of the in-flight records.
    fn crash_set(&self) -> CrashSet {
        let mut flight: Vec<MergeKey> = self.in_flight.iter().map(|r| r.0 .1).collect();
        flight.sort_unstable();
        // Pair ids are allocated per shard (each controller counts from
        // zero), so the same id on two shards names two unrelated pairs;
        // keying by (shard, pair) keeps their choice groups distinct.
        let mut pair_groups: FxHashMap<(usize, u64), usize> = FxHashMap::default();
        // Per provisional group: (shard, domain, guarantee point, first
        // member's key). Each shard's controller has its own pairing
        // coordinator and queues, so (shard, domain) — not domain alone
        // — names one serialized mechanism.
        let mut info: Vec<(usize, Domain, Time, MergeKey)> = Vec::new();
        // A group is pruned only when every member is shadowed (a
        // half-shadowed CA pair still matters).
        let mut live: Vec<bool> = Vec::new();
        let mut members: Vec<(MergeKey, usize)> = Vec::with_capacity(flight.len());
        for &key in &flight {
            let rec = self.record(key);
            let mut open = || {
                info.push((rec.shard, rec.domain, rec.guaranteed_at, key));
                live.push(false);
                info.len() - 1
            };
            let g = match rec.pair {
                Some(p) => *pair_groups.entry((rec.shard, p)).or_insert_with(open),
                None => open(),
            };
            live[g] |= !self.shadowed(&rec.op, key);
            members.push((key, g));
        }
        // Renumber the live groups densely so masks stay small.
        let mut renumber: Vec<Option<usize>> = vec![None; info.len()];
        let mut groups = 0usize;
        for (g, &alive) in live.iter().enumerate() {
            if alive {
                renumber[g] = Some(groups);
                groups += 1;
            }
        }
        let mut base_writers = FxHashMap::default();
        let entries: Vec<Entry> = members
            .into_iter()
            .filter_map(|(key, g)| {
                let group = renumber[g]?;
                let op = self.record(key).op.clone();
                for cell in op_cells(&op) {
                    if let Some(&w) = self.base_writers.get(&cell) {
                        base_writers.insert(cell, w);
                    }
                }
                Some(Entry { key, group, op })
            })
            .collect();
        // Guarantee order per (shard, domain) over the surviving
        // groups, shard-major. Ties (identical accept instants) fall
        // back to merged order, which is the queues' FIFO order. With
        // one shard this is exactly the four DOMAINS lists of the
        // pre-sharding checker.
        let domain_order = (0..=self.max_shard)
            .flat_map(|s| DOMAINS.iter().map(move |&d| (s, d)))
            .map(|(s, d)| {
                let mut in_domain: Vec<(Time, MergeKey, usize)> = info
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(gs, gd, _, _))| gs == s && gd == d)
                    .filter_map(|(g, &(_, _, at, first))| renumber[g].map(|n| (at, first, n)))
                    .collect();
                in_domain.sort_unstable_by_key(|&(at, first, _)| (at, first));
                in_domain.into_iter().map(|(_, _, n)| n).collect()
            })
            .collect();
        CrashSet {
            crash_time: self.time,
            base: self.base.clone(),
            guaranteed: self.guaranteed,
            entries,
            base_writers,
            groups,
            pruned_groups: info.len() - groups,
            domain_order,
        }
    }
}

/// The crash-set builder the cursor replaced: one pass over the merged
/// journal prefix that clones every record and prunes by a backward
/// scan. Kept as the oracle the cursor's differential tests compare
/// against.
#[cfg(test)]
mod reference {
    use super::*;

    /// How one journaled write participates in the crash state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        /// Ready before the crash: in every legal image.
        Guaranteed,
        /// In flight: lands iff its choice group's mask bit is set.
        Choice(usize),
        /// In flight but shadowed by a later guaranteed write to the
        /// same target — fixed (as not landing) rather than explored.
        Pruned,
    }

    #[derive(Debug, Clone)]
    struct Entry {
        op: JournalOp,
        fate: Fate,
    }

    /// The old crash set: the whole surviving journal prefix, each
    /// record tagged with its fate.
    pub(crate) struct RefSet {
        entries: Vec<Entry>,
        pub(crate) groups: usize,
        pub(crate) pruned_groups: usize,
        pub(crate) domain_order: Vec<Vec<usize>>,
    }

    impl RefSet {
        pub(crate) fn guaranteed_len(&self) -> usize {
            self.entries
                .iter()
                .filter(|e| e.fate == Fate::Guaranteed)
                .count()
        }

        pub(crate) fn in_flight_len(&self) -> usize {
            self.entries
                .iter()
                .filter(|e| matches!(e.fate, Fate::Choice(_)))
                .count()
        }

        /// Replays the surviving writes `mask` lands, in merged order.
        pub(crate) fn image(&self, mask: &LandMask) -> NvmmImage {
            let mut img = NvmmImage::new();
            for e in &self.entries {
                let lands = match e.fate {
                    Fate::Guaranteed => true,
                    Fate::Choice(g) => mask.get(g),
                    Fate::Pruned => false,
                };
                if lands {
                    e.op.apply(&mut img);
                }
            }
            img
        }

        /// Builds the crash state for a crash at `crash_time` from the
        /// journal records in submission (merged) order.
        pub(crate) fn from_journal<'a>(
            journal: impl IntoIterator<Item = &'a JournalRecord>,
            crash_time: Time,
        ) -> Self {
            // Pair ids are allocated per shard (each controller counts from
            // zero), so the same id on two shards names two unrelated pairs;
            // keying by (shard, pair) keeps their choice groups distinct.
            let mut pair_groups: FxHashMap<(usize, u64), usize> = FxHashMap::default();
            let mut entries: Vec<Entry> = Vec::new();
            // Per provisional group: (shard, domain, guarantee point, first
            // entry). Each shard's controller has its own pairing
            // coordinator and queues, so (shard, domain) — not domain alone
            // — names one serialized mechanism.
            let mut info: Vec<(usize, Domain, Time, usize)> = Vec::new();
            let mut max_shard = 0usize;
            for rec in journal {
                if rec.submitted_at > crash_time {
                    continue;
                }
                max_shard = max_shard.max(rec.shard);
                let idx = entries.len();
                let fate = if rec.guaranteed_at <= crash_time {
                    Fate::Guaranteed
                } else {
                    let g = match rec.pair {
                        Some(p) => *pair_groups.entry((rec.shard, p)).or_insert_with(|| {
                            info.push((rec.shard, rec.domain, rec.guaranteed_at, idx));
                            info.len() - 1
                        }),
                        None => {
                            info.push((rec.shard, rec.domain, rec.guaranteed_at, idx));
                            info.len() - 1
                        }
                    };
                    Fate::Choice(g)
                };
                entries.push(Entry {
                    op: rec.op.clone(),
                    fate,
                });
            }

            // Shadow prune: walking backwards, an in-flight write whose
            // target is fully overwritten by a *later guaranteed* write
            // cannot influence the image. A group is pruned only when every
            // member is shadowed (a half-shadowed CA pair still matters).
            let mut shadowed: Vec<bool> = vec![false; entries.len()];
            let mut covered: Vec<JournalOp> = Vec::new();
            for (i, e) in entries.iter().enumerate().rev() {
                match e.fate {
                    Fate::Guaranteed => covered.push(e.op.clone()),
                    Fate::Choice(_) => {
                        shadowed[i] = covered.iter().any(|later| later.covers(&e.op));
                    }
                    Fate::Pruned => unreachable!("pruning happens below"),
                }
            }
            let mut group_live: Vec<bool> = vec![false; info.len()];
            for (i, e) in entries.iter().enumerate() {
                if let Fate::Choice(g) = e.fate {
                    if !shadowed[i] {
                        group_live[g] = true;
                    }
                }
            }
            // Renumber the live groups densely so masks stay small.
            let mut renumber: Vec<Option<usize>> = vec![None; info.len()];
            let mut live = 0usize;
            for (g, &alive) in group_live.iter().enumerate() {
                if alive {
                    renumber[g] = Some(live);
                    live += 1;
                }
            }
            for e in &mut entries {
                if let Fate::Choice(g) = e.fate {
                    e.fate = match renumber[g] {
                        Some(n) => Fate::Choice(n),
                        None => Fate::Pruned,
                    };
                }
            }
            // Guarantee order per (shard, domain) over the surviving
            // groups, shard-major. Ties (identical accept instants) fall
            // back to submission order, which is the queues' FIFO order.
            // With one shard this is exactly the four DOMAINS lists of the
            // pre-sharding checker.
            let domain_order = (0..=max_shard)
                .flat_map(|s| DOMAINS.iter().map(move |&d| (s, d)))
                .map(|(s, d)| {
                    let mut in_domain: Vec<(Time, usize, usize)> = info
                        .iter()
                        .enumerate()
                        .filter(|&(_, &(gs, gd, _, _))| gs == s && gd == d)
                        .filter_map(|(g, &(_, _, at, first))| renumber[g].map(|n| (at, first, n)))
                        .collect();
                    in_domain.sort_unstable_by_key(|&(at, first, _)| (at, first));
                    in_domain.into_iter().map(|(_, _, n)| n).collect()
                })
                .collect();
            Self {
                entries,
                groups: live,
                pruned_groups: info.len() - live,
                domain_order,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::config::{Design, SimConfig};
    use crate::nvmm::LineRead;
    use crate::shard::ShardedController;
    use crate::stats::Stats;
    use proptest::prelude::*;

    /// A one-shard controller complex for `design`.
    fn ctl(design: Design) -> (ShardedController, Stats) {
        let cfg = SimConfig::single_core(design);
        (ShardedController::new(&cfg), Stats::new(1))
    }

    /// Crash instants straddling every journal transition for `c`.
    fn probe_times(horizon_ns: u64) -> impl Iterator<Item = Time> {
        (0..horizon_ns).step_by(7).map(Time::from_ns)
    }

    /// The records of `c`'s one shard guaranteed by `t`, applied op by
    /// op in journal order: the crash-image oracle.
    fn guaranteed_by(c: &ShardedController, t: Time) -> NvmmImage {
        applied(c.live_journals()[0].iter().filter(|r| r.guaranteed_at <= t))
    }

    /// For every design, on the journals the controller itself writes —
    /// counter-atomic and plain writes, counter write-backs, and an
    /// integrity policy's metadata where the design supports one — the
    /// all-miss baseline at every instant is the records guaranteed by
    /// then, applied op by op.
    #[test]
    fn baseline_matches_guaranteed_records_at_every_instant() {
        use crate::config::IntegrityPolicy;
        for design in Design::ALL {
            let mut cfg = SimConfig::single_core(design);
            if design.encrypted() && !design.co_located() {
                cfg = cfg.with_integrity(IntegrityPolicy::Strict);
            }
            let mut c = ShardedController::new(&cfg);
            let mut s = Stats::new(1);
            for i in 0..8u64 {
                let t = Time::from_ns(i * 40);
                c.writeback(LineAddr(i % 5), [i as u8; 64], i % 3 == 0, t, &mut s);
                if i % 4 == 1 {
                    c.counter_writeback(LineAddr(i % 5), t + Time::from_ns(5), &mut s);
                }
            }
            for t in probe_times(2_000) {
                assert_same_image(
                    &c.crash_set(t).baseline(),
                    &guaranteed_by(&c, t),
                    &format!("{design:?} baseline at {t}"),
                );
            }
        }
    }

    /// The replay adversary gets to pick *any* legal crash image off
    /// the enumeration, not just the ADR baseline, and splices it back
    /// after the run completed. What replaying a *stale* one (its
    /// counter region lags the completed run's) proves depends on the
    /// policy's freshness anchor:
    ///
    /// * lazy, strict, pipelined and colocated anchor every counter
    ///   write (the rebuilt root, the monotone counter sum), so they
    ///   catch every stale image;
    /// * mac-only has no anchor and catches none;
    /// * phoenix anchors freshness per epoch, so it catches exactly the
    ///   stale images whose epoch-summary region lags too.
    #[test]
    fn enumerated_crash_images_replayed_after_the_run_are_caught() {
        use crate::config::IntegrityPolicy;
        use crate::integrity::{verify_image_attack, FreshnessRef, PHOENIX_SUMMARY_LEVEL};

        let counter_region = |img: &NvmmImage| {
            let mut v: Vec<_> = img
                .counter_lines()
                .map(|(a, l)| (a, l.to_bytes()))
                .collect();
            v.sort_unstable_by_key(|&(a, _)| a);
            v
        };
        let summary_region = |img: &NvmmImage| {
            let mut v: Vec<_> = img
                .tree_nodes()
                .filter(|(node, _)| node.level == PHOENIX_SUMMARY_LEVEL)
                .collect();
            v.sort_unstable_by_key(|&(node, _)| node);
            v
        };
        for design in [Design::Sca, Design::Fca] {
            for policy in IntegrityPolicy::ALL.into_iter().filter(|p| p.enabled()) {
                for epoch in [1, 4] {
                    let mut cfg = SimConfig::single_core(design).with_integrity(policy);
                    cfg.phoenix_epoch_every = epoch;
                    let mut c = ShardedController::new(&cfg);
                    let mut s = Stats::new(1);
                    for round in 0..3u64 {
                        for i in 0..6u64 {
                            let (line, t) =
                                (LineAddr(i * 3), Time::from_ns(round * 1_000 + i * 50));
                            let data = [(1 + round * 6 + i) as u8; 64];
                            c.writeback(line, data, i % 2 == 0, t, &mut s);
                            if i % 3 == 2 {
                                c.counter_writeback(line, t + Time::from_ns(5), &mut s);
                            }
                        }
                    }
                    let full = c.build_image();
                    let (full_counters, full_summaries) =
                        (counter_region(&full), summary_region(&full));
                    let spec = IntegritySpec::from_config(&cfg);
                    let fresh = FreshnessRef::capture(&full, spec);
                    let engine = EncryptionEngine::new(cfg.key);
                    let mac_engine = MacEngine::new(cfg.key);
                    let mut stale = 0u64;
                    for t in probe_times(4_000) {
                        for (mask, img) in c.crash_set(t).enumerate(EnumOpts::default()).images {
                            if counter_region(&img) == full_counters {
                                continue;
                            }
                            stale += 1;
                            let caught = match policy {
                                IntegrityPolicy::MacOnly => false,
                                IntegrityPolicy::Phoenix => summary_region(&img) != full_summaries,
                                _ => true,
                            };
                            assert_eq!(
                                verify_image_attack(&img, spec, &engine, &mac_engine, &fresh)
                                    .detected(),
                                caught,
                                "{design:?}/{policy}/epoch {epoch}: stale legal image at {t}, \
                                 mask {:?}",
                                mask.landed()
                            );
                        }
                    }
                    assert!(stale > 0, "{design:?}/{policy}: no stale legal image");
                }
            }
        }
    }

    #[test]
    fn fca_pair_never_tears_under_any_mask() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [0x5au8; 64];
        c.writeback(LineAddr(3), data, false, Time::from_ns(10), &mut s);
        for t in probe_times(1_000) {
            let set = c.crash_set(t);
            for (mask, img) in set.enumerate(EnumOpts::default()).images {
                let r = img.read_line(LineAddr(3), c.engine());
                assert!(
                    r.is_clean(),
                    "mask {:?} at {t} exposed a torn pair",
                    mask.landed()
                );
                if !matches!(r, LineRead::Unwritten) {
                    assert_eq!(r.bytes(), data);
                }
            }
        }
    }

    #[test]
    fn in_flight_pair_yields_two_images() {
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(1), [1; 64], false, Time::from_ns(10), &mut s);
        // The pair is in flight between submission (t + crypto) and
        // pair-ready; pick an instant inside the window.
        let mid = Time::from_ns(60);
        let set = c.crash_set(mid);
        assert_eq!(set.group_count(), 1, "one CA pair in flight");
        assert_eq!(set.in_flight_len(), 2, "pair = data + counter records");
        assert_eq!(set.legal_images(), 2);
        let e = set.enumerate(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.stats.masks_explored, 2);
        assert_eq!(e.stats.domains, 1);
        assert_eq!(e.images.len(), 2, "line absent vs pair landed");
    }

    #[test]
    fn later_pair_never_lands_without_earlier_pair() {
        // Two CA pairs through the serialized coordinator, data lines
        // sharing one counter line: the second pair's counter snapshot
        // already embeds the first pair's bump, so an image with only
        // the second pair landed would garble line 1 — and no hardware
        // can emit it (pair 2's handshake finishes after pair 1's).
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(2), [2; 64], false, Time::from_ns(1), &mut s);
        // Both submitted (~40 ns), neither ready (first pair ~140 ns).
        let t = Time::from_ns(100);
        let set = c.crash_set(t);
        assert_eq!(set.group_count(), 2, "both pairs in flight");
        assert_eq!(set.domain_count(), 1, "one pairing coordinator");
        assert_eq!(set.legal_images(), 3, "prefixes {{}}, {{1}}, {{1,2}}");
        let e = set.enumerate(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.stats.masks_explored, 3);
        for (mask, img) in &e.images {
            assert!(set.is_legal(mask));
            assert!(
                mask.get(0) || !mask.get(1),
                "prefix closure violated: {:?}",
                mask.landed()
            );
            let r = img.read_line(LineAddr(1), c.engine());
            assert!(
                matches!(r, LineRead::Unwritten) || r.is_clean(),
                "mask {:?} garbled line 1: the independence bug",
                mask.landed()
            );
        }
    }

    #[test]
    fn quiesced_crash_has_single_image() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(4), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(400), &mut s);
        let set = c.crash_set(c.quiesce_time());
        assert_eq!(set.group_count(), 0, "no in-flight entries after quiesce");
        let e = set.enumerate(EnumOpts::default());
        assert_eq!(e.images.len(), 1);
        assert_eq!(
            e.images[0].1.fingerprint(),
            c.build_image().fingerprint(),
            "the single image is the everything-landed journal"
        );
    }

    #[test]
    fn shadowed_group_is_pruned() {
        let (mut c, mut s) = ctl(Design::Sca);
        // Filler pairs back up the serialized pairing coordinator so the
        // pair under test stays in flight for hundreds of ns.
        for i in 0..4u64 {
            c.writeback(LineAddr(100 + i), [0; 64], true, Time::from_ns(i), &mut s);
        }
        // The shadowed victim: a CA pair to line 4 whose ready time is
        // far out, followed by *guaranteed-fast* plain writes covering
        // both halves — a newer ciphertext for the data line and (via
        // ccwb) a newer counter line.
        c.writeback(LineAddr(4), [1; 64], true, Time::from_ns(10), &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(20), &mut s);
        c.counter_writeback(LineAddr(4), Time::from_ns(70), &mut s);
        let t = Time::from_ns(250);
        let set = c.crash_set(t);
        assert!(
            set.pruned_groups() >= 1,
            "the covered pair must be pruned (pruned={}, groups={})",
            set.pruned_groups(),
            set.group_count()
        );
        // Whatever the surviving choice groups do, line 4 is pinned by
        // the later guaranteed writes: always the newest plaintext.
        for (mask, img) in set.enumerate(EnumOpts::default()).images {
            assert_eq!(
                img.read_line(LineAddr(4), c.engine()),
                LineRead::Clean([2; 64]),
                "mask {:?} changed a fully shadowed line",
                mask.landed()
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let (mut c, mut s) = ctl(Design::Fca);
        // Back-to-back CA writes chain on the pairing coordinator
        // (~100 ns per handshake), so a mid-burst crash sees far more
        // pairs in flight than the cap admits images.
        for i in 0..100u64 {
            c.writeback(LineAddr(i), [i as u8; 64], false, Time::from_ns(i), &mut s);
        }
        let t = Time::from_ns(600);
        let set = c.crash_set(t);
        assert!(
            set.legal_images() > 64,
            "need a big in-flight window, got {} groups",
            set.group_count()
        );
        let opts = EnumOpts {
            max_images: 64,
            seed: 7,
        };
        let a = set.enumerate(opts);
        let b = set.enumerate(opts);
        assert!(!a.stats.exhaustive);
        assert_eq!(a.stats.masks_explored, 64);
        assert_eq!(a.images.len(), b.images.len());
        for ((ma, ia), (mb, ib)) in a.images.iter().zip(b.images.iter()) {
            assert_eq!(ma, mb);
            assert_eq!(ia.fingerprint(), ib.fingerprint());
        }
        for (mask, _) in &a.images {
            assert!(set.is_legal(mask), "sampled an illegal mask");
        }
        // A different seed explores a different sample.
        let c2 = set.enumerate(EnumOpts {
            max_images: 64,
            seed: 8,
        });
        assert!(
            a.images
                .iter()
                .zip(c2.images.iter())
                .any(|(x, y)| x.0 != y.0),
            "different seeds should sample different masks"
        );
    }

    /// Asserts the fused overlay walk agrees exactly with the reference
    /// materializer: same stats, same masks, same fingerprints, in the
    /// same order, and every walked fingerprint equals a from-scratch
    /// recompute.
    fn assert_enumerations_agree(set: &CrashSet, opts: EnumOpts) {
        let key = SimConfig::single_core(Design::Sca).key;
        let (engine, mac_engine) = (EncryptionEngine::new(key), MacEngine::new(key));
        let reference = set.enumerate(opts);
        let t = set.crash_time();
        let (walk, _, _) =
            set.enumerate_verified_timed(opts, 1, IntegritySpec::disabled(), &engine, &mac_engine);
        assert_eq!(walk.stats, reference.stats, "stats at {t}");
        assert_eq!(walk.images.len(), reference.images.len());
        for ((mr, ir), (mw, iw)) in reference.images.iter().zip(&walk.images) {
            assert_eq!(mr, mw, "masks diverged at {t}");
            assert_eq!(
                ir.fingerprint(),
                iw.fingerprint(),
                "images diverged for mask {:?} at {t}",
                mr.landed()
            );
            assert_eq!(iw.fingerprint(), iw.fingerprint_recompute());
        }
    }

    /// `enumerate_verified_timed` keeps its worker count only so callers
    /// that pass 1 still build; any other count is refused rather than
    /// silently ignored.
    #[test]
    #[should_panic(expected = "1 is the only worker count")]
    fn walk_refuses_worker_threads() {
        let key = SimConfig::single_core(Design::Sca).key;
        let (engine, mac_engine) = (EncryptionEngine::new(key), MacEngine::new(key));
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(1), [1; 64], false, Time::from_ns(10), &mut s);
        let set = c.crash_set(Time::from_ns(60));
        let spec = IntegritySpec::disabled();
        let (one, _, _) =
            set.enumerate_verified_timed(EnumOpts::default(), 1, spec, &engine, &mac_engine);
        assert_eq!(one.images.len(), 2, "line absent vs pair landed");
        let _ = set.enumerate_verified_timed(EnumOpts::default(), 2, spec, &engine, &mac_engine);
    }

    #[test]
    fn overlay_matches_eager_on_controller_journals() {
        for design in [Design::Fca, Design::Sca, Design::CoLocated] {
            let (mut c, mut s) = ctl(design);
            for i in 0..12u64 {
                c.writeback(
                    LineAddr(i % 5),
                    [i as u8; 64],
                    i % 3 == 0,
                    Time::from_ns(i * 13),
                    &mut s,
                );
                if i % 4 == 1 {
                    c.counter_writeback(LineAddr(i % 5), Time::from_ns(i * 13 + 5), &mut s);
                }
            }
            for t in probe_times(1_500) {
                let set = c.crash_set(t);
                assert_enumerations_agree(&set, EnumOpts::default());
                assert_enumerations_agree(
                    &set,
                    EnumOpts {
                        max_images: 16,
                        seed: 11,
                    },
                );
            }
        }
    }

    /// A synthetic journal driven straight from a seed: random ops over
    /// a small address space, random in-flight windows, random pairing —
    /// shapes no single controller design emits, exercising the overlay's
    /// cross-domain same-cell interleavings.
    fn synthetic_journal(seed: u64) -> Vec<JournalRecord> {
        use crate::integrity::DigestLine;
        use nvmm_crypto::counter::CounterLine;
        use nvmm_crypto::mac::{Mac, MacLine};
        use nvmm_crypto::Counter;
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        let mut rng = move || splitmix64(&mut state);
        let n = 4 + (rng() % 20) as usize;
        let mut journal = Vec::with_capacity(n);
        let mut pair = 0u64;
        for i in 0..n as u64 {
            let submitted_ns = i * 10 + rng() % 5;
            let submitted = Time::from_ns(submitted_ns);
            let flight = rng() % 400;
            let domain = match rng() % 4 {
                0 => Domain::Pairing,
                1 => Domain::DataQueue,
                2 => Domain::CounterQueue,
                _ => Domain::MetadataQueue,
            };
            // Spread records over two shards (pair members share one)
            // so the differential suite covers sharded journals too.
            let shard = (rng() % 2) as usize;
            let mk_op = |r: u64, v: u64| -> JournalOp {
                match r % 7 {
                    0 => JournalOp::Plain {
                        line: LineAddr(v % 4),
                        data: [v as u8; 64],
                    },
                    1 => JournalOp::Encrypted {
                        line: LineAddr(v % 4),
                        ciphertext: [v as u8 ^ 0x55; 64],
                        counter: Counter(v + 1),
                    },
                    2 => JournalOp::CoLocated {
                        line: LineAddr(v % 4),
                        ciphertext: [v as u8 ^ 0xaa; 64],
                        counter: Counter(v + 1),
                    },
                    3 => {
                        let mut cl = CounterLine::new();
                        cl.set((v % 8) as usize, Counter(v + 1));
                        JournalOp::CounterLine {
                            cline: CounterLineAddr(v % 2),
                            counters: cl,
                        }
                    }
                    4 => {
                        let mut ml = MacLine::new();
                        ml.set((v % 8) as usize, Mac(v + 1));
                        JournalOp::MacLine {
                            mline: MacLineAddr(v % 2),
                            macs: ml,
                        }
                    }
                    5 => {
                        let mut d = DigestLine::new();
                        d.set((v % 8) as usize, v + 1);
                        JournalOp::TreeNode {
                            node: TreeNodeAddr {
                                level: 1 + (v % 2) as u32,
                                index: v % 2,
                            },
                            digests: d,
                        }
                    }
                    _ => {
                        let mut cl = CounterLine::new();
                        cl.set((v % 8) as usize, Counter(v + 1));
                        let mut ml = MacLine::new();
                        ml.set((v % 8) as usize, Mac(v + 2));
                        JournalOp::PackedMeta {
                            cline: CounterLineAddr(v % 2),
                            counters: cl,
                            macs: Box::new(ml),
                        }
                    }
                }
            };
            // Occasionally emit a CA-style pair: two records sharing a
            // pair id, landing atomically.
            if domain == Domain::Pairing && rng() % 2 == 0 {
                pair += 1;
                let guaranteed = Time::from_ns(submitted_ns + 50 + flight);
                for _ in 0..2 {
                    journal.push(JournalRecord {
                        submitted_at: submitted,
                        guaranteed_at: guaranteed,
                        pair: Some(pair),
                        domain,
                        shard,
                        op: mk_op(rng(), rng()),
                    });
                }
            } else {
                journal.push(JournalRecord {
                    submitted_at: submitted,
                    guaranteed_at: Time::from_ns(submitted_ns + 20 + flight),
                    pair: None,
                    domain,
                    shard,
                    op: mk_op(rng(), rng()),
                });
            }
        }
        journal
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]
        #[test]
        fn overlay_matches_eager_on_random_journals(seed in 0u64..1_000_000) {
            let journal = synthetic_journal(seed);
            let horizon_ps = journal
                .iter()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed;
            for _ in 0..6 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let set = CrashSet::from_journal(&[&journal], t);
                assert_enumerations_agree(&set, EnumOpts::default());
                assert_enumerations_agree(&set, EnumOpts { max_images: 8, seed });
            }
        }

        /// The fused delta-verified walk must reproduce the full-pass
        /// verifier *exactly* — same retained images, same Ok/Err
        /// verdict strings — across every policy and both exhaustive
        /// and sampled schedules.
        #[test]
        fn delta_verdicts_match_full_verifiers_on_random_journals(seed in 0u64..1_000_000) {
            use crate::config::IntegrityPolicy;
            use crate::integrity::verify_image;
            let cfg = SimConfig::single_core(Design::Sca);
            let engine = EncryptionEngine::new(cfg.key);
            let mac_engine = MacEngine::new(cfg.key);
            let journal = synthetic_journal(seed);
            let horizon_ps = journal
                .iter()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed ^ 0xd1f7;
            for _ in 0..3 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let set = CrashSet::from_journal(&[&journal], t);
                for opts in [EnumOpts::default(), EnumOpts { max_images: 8, seed }] {
                    for policy in IntegrityPolicy::ALL {
                        let spec = IntegritySpec { policy, levels: 2 };
                        let (en, verdicts, _) =
                            set.enumerate_verified_timed(opts, 1, spec, &engine, &mac_engine);
                        let eager = set.enumerate(opts);
                        prop_assert_eq!(en.images.len(), eager.images.len());
                        prop_assert_eq!(en.images.len(), verdicts.len());
                        for (i, (_, img)) in en.images.iter().enumerate() {
                            prop_assert_eq!(
                                img.fingerprint(),
                                eager.images[i].1.fingerprint()
                            );
                            prop_assert_eq!(
                                &verdicts[i],
                                &verify_image(img, spec, &engine, &mac_engine)
                            );
                        }
                    }
                }
            }
        }

        /// `in_flight_lines` covers every line whose read can move: on
        /// random journals (whose counter-line writes cover lines the
        /// data writes never touch), every line outside the list reads
        /// in every enumerated image — plain and through a recovery
        /// window — exactly as in the base image, and the list is
        /// sorted and distinct.
        #[test]
        fn lines_outside_in_flight_lines_read_as_in_base(seed in 0u64..1_000_000) {
            let engine = EncryptionEngine::new(SimConfig::single_core(Design::Sca).key);
            let journal = synthetic_journal(seed);
            let horizon_ps = journal
                .iter()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed ^ 0x1f1e;
            for _ in 0..6 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let set = CrashSet::from_journal(&[&journal], t);
                let moving = set.in_flight_lines();
                prop_assert!(moving.windows(2).all(|w| w[0] < w[1]));
                let still: Vec<LineAddr> =
                    (0..24).map(LineAddr).filter(|l| !moving.contains(l)).collect();
                for (_, img) in set.enumerate(EnumOpts::default()).images {
                    for &l in &still {
                        prop_assert_eq!(
                            img.read_line(l, &engine),
                            set.base().read_line(l, &engine)
                        );
                        prop_assert_eq!(
                            img.read_line_with_window(l, &engine, 4),
                            set.base().read_line_with_window(l, &engine, 4)
                        );
                    }
                }
            }
        }
    }

    /// An injected tree bug — a guaranteed tree node referencing a
    /// counter line that never persisted — must blame the exact same
    /// witness string through the incremental path as through the full
    /// verifier.
    #[test]
    fn injected_tree_bug_blames_same_witness_incrementally() {
        use crate::config::IntegrityPolicy;
        use crate::integrity::{verify_image, DigestLine};

        let cfg = SimConfig::single_core(Design::Sca);
        let engine = EncryptionEngine::new(cfg.key);
        let mac_engine = MacEngine::new(cfg.key);
        let mut d = DigestLine::new();
        d.set(3, 0xdead_beef);
        let journal = vec![
            JournalRecord {
                submitted_at: Time::from_ns(0),
                guaranteed_at: Time::from_ns(10),
                pair: None,
                domain: Domain::MetadataQueue,
                shard: 0,
                op: JournalOp::TreeNode {
                    node: TreeNodeAddr { level: 1, index: 0 },
                    digests: d,
                },
            },
            // An in-flight write so the schedule has a real delta to
            // walk past the base image.
            JournalRecord {
                submitted_at: Time::from_ns(5),
                guaranteed_at: Time::from_ns(500),
                pair: None,
                domain: Domain::DataQueue,
                shard: 0,
                op: JournalOp::Plain {
                    line: LineAddr(9),
                    data: [7u8; 64],
                },
            },
        ];
        let set = CrashSet::from_journal(&[&journal], Time::from_ns(100));
        let spec = IntegritySpec {
            policy: IntegrityPolicy::Strict,
            levels: 2,
        };
        let (en, verdicts, _) =
            set.enumerate_verified_timed(EnumOpts::default(), 1, spec, &engine, &mac_engine);
        let mut bug_seen = false;
        for (i, (_, img)) in en.images.iter().enumerate() {
            let eager = verify_image(img, spec, &engine, &mac_engine);
            assert_eq!(verdicts[i], eager, "incremental/full witness divergence");
            if let Err(e) = &verdicts[i] {
                assert!(
                    e.contains("references counter line"),
                    "unexpected witness: {e}"
                );
                bug_seen = true;
            }
        }
        assert!(bug_seen, "the injected dangling tree link never surfaced");
    }

    /// Asserts a cursor-built crash set equals the reference builder's
    /// over the same journal prefixes: counts, domain orders, and the
    /// image of every mask two cut schedules visit.
    fn assert_matches_reference(set: &CrashSet, old: &reference::RefSet) {
        let t = set.crash_time();
        assert_eq!(set.group_count(), old.groups, "groups at {t}");
        assert_eq!(set.pruned_groups(), old.pruned_groups, "pruned at {t}");
        assert_eq!(set.domain_order, old.domain_order, "domain order at {t}");
        assert_eq!(set.guaranteed_len(), old.guaranteed_len(), "at {t}");
        assert_eq!(set.in_flight_len(), old.in_flight_len(), "at {t}");
        for opts in [
            EnumOpts::default(),
            EnumOpts {
                max_images: 8,
                seed: 3,
            },
        ] {
            let sched = set.cut_schedule(opts);
            let mut cuts = Vec::new();
            for i in 0..sched.n_masks() {
                sched.cuts_into(i, &mut cuts);
                let mask = set.mask_from_cuts(&cuts);
                assert!(set.is_legal(&mask));
                let img = set.image(&mask);
                assert_eq!(
                    img.fingerprint(),
                    old.image(&mask).fingerprint(),
                    "mask {:?} at {t}",
                    mask.landed()
                );
                assert_eq!(img.fingerprint(), img.fingerprint_recompute());
            }
        }
        assert_enumerations_agree(set, EnumOpts::default());
    }

    /// `synthetic_journal` dealt into two unsorted shard journals.
    fn shard_journals(seed: u64) -> Vec<Vec<JournalRecord>> {
        deal_unsorted(synthetic_journal(seed), seed)
    }

    /// Deals `journal` into two shard journals by record shard, with a
    /// seeded third of the submission instants pulled back by up to
    /// 30 ns: real shard journals are not sorted by submission (a counter
    /// write-back goes out while an earlier data write is still being
    /// encrypted).
    fn deal_unsorted(journal: Vec<JournalRecord>, seed: u64) -> Vec<Vec<JournalRecord>> {
        let mut state = seed ^ 0x5eed;
        let mut shards = vec![Vec::new(), Vec::new()];
        for mut rec in journal {
            if splitmix64(&mut state).is_multiple_of(3) {
                let back = splitmix64(&mut state) % 30_000;
                rec.submitted_at = Time(rec.submitted_at.0.saturating_sub(back));
            }
            shards[rec.shard].push(rec);
        }
        shards
    }

    /// `synthetic_journal` plus, at seeded places, the writes a per-cell
    /// fold must resolve cell by cell: a packed-metadata write and a
    /// counter-line write to one counter line (a later counter-line write
    /// replaces only the packed write's counter half), and an encrypted
    /// and a co-located write to one data line (the co-located write's
    /// counter half outlives a later encrypted write).
    fn fold_journal(seed: u64) -> Vec<JournalRecord> {
        use nvmm_crypto::counter::CounterLine;
        use nvmm_crypto::mac::{Mac, MacLine};
        use nvmm_crypto::Counter;
        let mut journal = synthetic_journal(seed);
        let mut state = seed ^ 0xf01d;
        let mut counters = CounterLine::new();
        counters.set(3, Counter(70));
        let mut macs = MacLine::new();
        macs.set(3, Mac(71));
        let mut other = CounterLine::new();
        other.set(5, Counter(72));
        let extra = [
            JournalOp::PackedMeta {
                cline: CounterLineAddr(1),
                counters,
                macs: Box::new(macs),
            },
            JournalOp::CounterLine {
                cline: CounterLineAddr(1),
                counters: other,
            },
            JournalOp::Encrypted {
                line: LineAddr(2),
                ciphertext: [0x33; 64],
                counter: Counter(73),
            },
            JournalOp::CoLocated {
                line: LineAddr(2),
                ciphertext: [0x44; 64],
                counter: Counter(74),
            },
        ];
        for op in extra {
            let at = splitmix64(&mut state) as usize % (journal.len() + 1);
            let submitted_at = journal
                .get(at)
                .map_or(Time::from_ns(300), |r| r.submitted_at);
            journal.insert(
                at,
                JournalRecord {
                    submitted_at,
                    guaranteed_at: submitted_at + Time::from_ns(splitmix64(&mut state) % 400),
                    pair: None,
                    domain: Domain::DataQueue,
                    shard: (splitmix64(&mut state) % 2) as usize,
                    op,
                },
            );
        }
        journal
    }

    /// Op-by-op application of `records` to a fresh image: the fold's
    /// oracle.
    fn applied<'a>(records: impl IntoIterator<Item = &'a JournalRecord>) -> NvmmImage {
        let mut img = NvmmImage::new();
        for r in records {
            r.op.apply(&mut img);
        }
        img
    }

    fn assert_same_image(got: &NvmmImage, want: &NvmmImage, what: &str) {
        assert!(got == want, "{what}: image contents or fingerprint differ");
        assert_eq!(got.fingerprint(), got.fingerprint_recompute(), "{what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// Every production image build — the whole-journal fold, a
        /// crash image (a crash set's baseline) on one controller and on
        /// two unsorted shard journals, and batched compaction at growing
        /// watermarks — equals applying the same records op by op in
        /// (merged) journal order.
        #[test]
        fn last_writer_fold_matches_sequential_apply(seed in 0u64..1_000_000) {
            use crate::shard::{MergedJournal, ShardedController};
            let journal = fold_journal(seed);
            let mut folded = NvmmImage::new();
            fold_last_writers(&mut folded, journal.iter().map(|r| &r.op));
            assert_same_image(&folded, &applied(&journal), "full fold");

            let single = ShardedController::with_journals(vec![journal.clone()]);
            let shards = deal_unsorted(journal, seed);
            let sharded = ShardedController::with_journals(shards.clone());
            let merged = || MergedJournal::new(shards.iter().map(Vec::as_slice).collect());
            let horizon_ps = merged().map(|r| r.guaranteed_at.0).max().unwrap_or(0) + 10_000;
            let mut state = seed ^ 0xb17d;
            for _ in 0..4 {
                let t = Time(splitmix64(&mut state) % horizon_ps);
                let landed = |r: &&JournalRecord| r.guaranteed_at <= t;
                assert_same_image(
                    &single.crash_set(t).baseline(),
                    &guaranteed_by(&single, t),
                    &format!("controller image at {t}"),
                );
                assert_same_image(
                    &sharded.crash_set(t).baseline(),
                    &applied(merged().filter(landed)),
                    &format!("sharded image at {t}"),
                );
            }

            let complete = applied(merged());
            assert_same_image(&sharded.build_image(), &complete, "uncompacted");
            let mut compacted = ShardedController::with_journals(shards.clone());
            let mut watermarks: Vec<Time> =
                (0..4).map(|_| Time(splitmix64(&mut state) % horizon_ps)).collect();
            watermarks.sort_unstable();
            for w in watermarks {
                compacted.compact_through(w);
                assert_same_image(
                    &compacted.build_image(),
                    &complete,
                    &format!("compacted through {w}"),
                );
            }
            prop_assert_eq!(compacted.journal_len(), sharded.journal_len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// One cursor advanced through sorted instants (one duplicated)
        /// over two unsorted shard journals builds, at every instant, the
        /// crash set the reference builder makes from the merged complete
        /// journals.
        #[test]
        fn cursor_matches_reference_on_random_journals(seed in 0u64..1_000_000) {
            use crate::shard::MergedJournal;
            let shards = shard_journals(seed);
            let slices: Vec<&[JournalRecord]> = shards.iter().map(Vec::as_slice).collect();
            let horizon_ps = shards
                .iter()
                .flatten()
                .map(|r| r.guaranteed_at.0)
                .max()
                .unwrap_or(0)
                + 10_000;
            let mut state = seed ^ 0xc0de;
            let mut instants: Vec<Time> =
                (0..8).map(|_| Time(splitmix64(&mut state) % horizon_ps)).collect();
            instants.push(instants[3]);
            instants.sort_unstable();
            let mut cursor = CrashCursor::new(slices.clone());
            for &t in &instants {
                let set = cursor.advance(t);
                let old = reference::RefSet::from_journal(MergedJournal::new(slices.clone()), t);
                assert_matches_reference(&set, &old);
            }
        }
    }

    /// Two shard journals of several [`FLOOR_STRIDE`] blocks each, whose
    /// submissions are out of order within a block (a third pulled back
    /// by up to 30 ns) and across blocks (one in 40 pulled back by up to
    /// four blocks' worth of records, so a later block can hold an
    /// earlier submission than the block before it): at every instant,
    /// the cut's binary search over the floors admits what the reference
    /// builder admits from the merged complete journals.
    #[test]
    fn cursor_cuts_journals_of_many_floor_blocks() {
        use crate::shard::MergedJournal;
        let mut state = 0xf100_5eed;
        let records = 8 * FLOOR_STRIDE as u64;
        let shards: Vec<Vec<JournalRecord>> = (0..2)
            .map(|shard| {
                (0..records)
                    .map(|i| {
                        let back = match splitmix64(&mut state) % 120 {
                            0..=2 => splitmix64(&mut state) % (4 * FLOOR_STRIDE as u64 * 10_000),
                            3..=42 => splitmix64(&mut state) % 30_000,
                            _ => 0,
                        };
                        let submitted_at = Time((i * 10_000).saturating_sub(back));
                        let flight = 20_000 + splitmix64(&mut state) % 100_000;
                        JournalRecord {
                            submitted_at,
                            guaranteed_at: Time(submitted_at.0 + flight),
                            pair: None,
                            domain: Domain::DataQueue,
                            shard,
                            op: JournalOp::Plain {
                                line: LineAddr(splitmix64(&mut state) % 32),
                                data: [i as u8; 64],
                            },
                        }
                    })
                    .collect()
            })
            .collect();
        let slices: Vec<&[JournalRecord]> = shards.iter().map(Vec::as_slice).collect();
        let horizon_ps = records * 10_000 + 300_000;
        let mut cursor = CrashCursor::new(slices.clone());
        for k in 0..=64 {
            let t = Time(horizon_ps * k / 64);
            let set = cursor.advance(t);
            let old = reference::RefSet::from_journal(MergedJournal::new(slices.clone()), t);
            assert_matches_reference(&set, &old);
        }
    }

    /// Guarantees arrive out of merge order: a lower-key write to a line
    /// guaranteed *after* a higher-key write to the same line must not
    /// displace it from the base image, at any instant — whether the
    /// cursor passes the two guarantees in separate advances or in one,
    /// where both writers of the line fold, the higher key first.
    #[test]
    fn late_guarantee_of_earlier_write_keeps_later_value() {
        let write = |submitted_ns, guaranteed_ns, v: u8| JournalRecord {
            submitted_at: Time::from_ns(submitted_ns),
            guaranteed_at: Time::from_ns(guaranteed_ns),
            pair: None,
            domain: Domain::DataQueue,
            shard: 0,
            op: JournalOp::Plain {
                line: LineAddr(1),
                data: [v; 64],
            },
        };
        let journal = vec![write(0, 500, 1), write(10, 100, 2)];
        for instants in [(0..800).step_by(25).collect(), vec![0, 600]] {
            let mut cursor = CrashCursor::new(vec![&journal]);
            for t in instants.into_iter().map(Time::from_ns) {
                let set = cursor.advance(t);
                let want = (t >= Time::from_ns(100)).then_some([2; 64]);
                assert_eq!(set.baseline().raw_data(LineAddr(1)), want, "at {t}");
                assert_matches_reference(&set, &reference::RefSet::from_journal(&journal, t));
            }
        }
    }

    #[test]
    fn enumerate_reports_dedupe_accounting() {
        let (mut c, mut s) = ctl(Design::Sca);
        for i in 0..6u64 {
            c.writeback(
                LineAddr(1),
                [i as u8; 64],
                false,
                Time::from_ns(i * 3),
                &mut s,
            );
        }
        for t in probe_times(800) {
            let e = c.crash_set(t).enumerate(EnumOpts::default());
            assert_eq!(
                e.stats.images_deduped,
                e.stats.masks_explored - e.images.len() as u64
            );
            assert_eq!(e.stats.images_unique, e.images.len());
        }
    }

    #[test]
    fn cross_shard_pairs_with_equal_ids_stay_distinct_groups() {
        // Each shard's controller allocates pair ids from zero, so a
        // merged journal reuses the same id for unrelated pairs on
        // different shards. Grouping by (shard, pair) keeps them
        // distinct; a pair-id-only key would fuse them into one choice
        // group and under-enumerate the legal images.
        use nvmm_crypto::Counter;
        let mk = |shard: usize, line: u64| JournalRecord {
            submitted_at: Time::from_ns(1),
            guaranteed_at: Time::from_ns(500),
            pair: Some(1),
            domain: Domain::Pairing,
            shard,
            op: JournalOp::Encrypted {
                line: LineAddr(line),
                ciphertext: [line as u8; 64],
                counter: Counter(1),
            },
        };
        let journal = vec![mk(0, 0), mk(0, 1), mk(1, 8), mk(1, 9)];
        let set = CrashSet::from_journal(&[&journal], Time::from_ns(10));
        assert_eq!(
            set.group_count(),
            2,
            "pair id 1 on two shards names two unrelated pairs"
        );
        assert_eq!(
            set.legal_images(),
            4,
            "the shards' pairing coordinators race independently"
        );
        let e = set.enumerate(EnumOpts::default());
        assert!(e.stats.exhaustive);
        assert_eq!(e.images.len(), 4);
        // Shard 1's pair landing without shard 0's is a legal image —
        // unreachable if the ids had merged into one group.
        assert!(
            e.images.iter().any(|(_, img)| {
                img.raw_data(LineAddr(8)).is_some() && img.raw_data(LineAddr(0)).is_none()
            }),
            "missing the shard-1-only landing"
        );
    }

    #[test]
    fn landmask_bit_ops() {
        let mut m = LandMask::zeros(70);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 70);
        m.set(0, true);
        m.set(69, true);
        assert!(m.get(0) && m.get(69) && !m.get(35));
        assert_eq!(m.landed(), vec![0, 69]);
        assert_eq!(m.count_landed(), 2);
        m.set(69, false);
        assert_eq!(m.count_landed(), 1);
        assert_eq!(LandMask::ones(70).count_landed(), 70);
    }
}
