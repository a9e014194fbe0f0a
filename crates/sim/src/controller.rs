//! The memory controller: encryption engine, counter cache, write-queue
//! complex, and the persistence journal from which post-crash NVMM images
//! are built.
//!
//! One controller sits in front of one NVMM channel; it is a shard of
//! [`crate::shard::ShardedController`], the complex every core shares
//! and the only controller the rest of the crate drives. The controller implements
//! the read and write datapaths of all evaluated designs:
//!
//! * **NoEncryption** — plain reads/writes.
//! * **Co-located** (±counter cache) — 72-byte lines on a 72-bit bus;
//!   atomic by construction; reads serialize decryption unless the
//!   counter cache hits (§3.2.1).
//! * **Separate-counter** designs (Ideal / FCA / SCA / Unsafe) — counters
//!   live in their own region, cached in the counter cache; writes go
//!   through the paired write queues of [`crate::wq`] according to the
//!   design's counter-atomicity policy.
//!
//! ## The journal
//!
//! Every NVMM write is appended to a journal stamped with the time at
//! which it was *submitted* to the write-queue complex and the time at
//! which ADR *guarantees* it (acceptance for plain writes, pair-ready for
//! counter-atomic writes). A post-crash image is the journal filtered by
//! `guaranteed_at <= crash_time`, applied in journal order — exactly
//! the set of entries the paper's ADR drain would persist (§5.2.2 "Steps
//! During a System Failure"). Journal order is not sorted by submission:
//! a counter write-back can journal behind a pair whose submission
//! waited for the pad.
//!
//! The window between submission and guarantee is where ADR makes *no*
//! promise either way: a crash inside it may or may not have latched the
//! entry. [`crate::shard::ShardedController::crash_set`] surfaces that
//! in-flight set (with counter-atomic pairs grouped so they toggle
//! together) for the [`crate::crashmc`] model checker, which enumerates
//! every image the hardware could legally leave behind; the set's
//! all-miss [`baseline`](crate::crashmc::CrashSet::baseline) is the
//! single everything-lost image.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr, NvmmTarget, TreeNodeAddr};
use crate::cache::SetAssocCache;
use crate::config::{Design, Fault, IntegrityPolicy, SimConfig};
use crate::crashmc::Domain;
use crate::device::{AccessKind, PcmDevice};
use crate::integrity::{DigestLine, IntegrityState, MetaKey};
#[cfg(test)]
use crate::nvmm::NvmmImage;
use crate::stats::Stats;
use crate::time::Time;
use crate::wq::{PlainReceipt, WriteQueues};
use fxhash::FxHashMap;
use nvmm_crypto::counter::CounterLine;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacLine;
use nvmm_crypto::{Counter, LineData};

/// One persisted NVMM write, with the instant it entered the write-queue
/// complex and the instant ADR vouches for it.
#[derive(Debug, Clone)]
pub(crate) struct JournalRecord {
    /// When the write was handed to the queues. Between `submitted_at`
    /// and `guaranteed_at` the entry is *in flight*: ADR neither
    /// promises nor forbids its persistence across a crash.
    pub(crate) submitted_at: Time,
    pub(crate) guaranteed_at: Time,
    /// Counter-atomic pair id: the data and counter records of one CA
    /// write share an id and land (or are lost) atomically — the
    /// ready-bit rule of §5.2.2. `None` for unpaired (plain) writes.
    pub(crate) pair: Option<u64>,
    /// The serialization domain whose mechanism produced
    /// `guaranteed_at`; in-flight landings are prefix-closed within a
    /// domain (see [`crate::crashmc`]).
    pub(crate) domain: Domain,
    /// The channel shard whose controller owns the write. Each shard
    /// has its own queues and pairing coordinator, so the model
    /// checker's serialization domains are (shard, domain) pairs; a
    /// single-controller system journals everything as shard 0.
    pub(crate) shard: usize,
    pub(crate) op: JournalOp,
}

#[derive(Debug, Clone)]
pub(crate) enum JournalOp {
    Plain {
        line: LineAddr,
        data: LineData,
    },
    Encrypted {
        line: LineAddr,
        ciphertext: LineData,
        counter: Counter,
    },
    CoLocated {
        line: LineAddr,
        ciphertext: LineData,
        counter: Counter,
    },
    CounterLine {
        cline: CounterLineAddr,
        counters: CounterLine,
    },
    MacLine {
        mline: MacLineAddr,
        macs: MacLine,
    },
    TreeNode {
        node: TreeNodeAddr,
        digests: DigestLine,
    },
    /// SecPM-style packed metadata write: the counter line and its MAC
    /// line land as one line-sized write (the colocated policy's
    /// halving of metadata traffic). The two halves are inherently
    /// atomic — one device write — so one journal record carries both.
    PackedMeta {
        cline: CounterLineAddr,
        counters: CounterLine,
        macs: MacLine,
    },
}

impl JournalOp {
    /// Applies this persisted write to an image under construction, op
    /// by op. Production folds through
    /// [`fold_last_writers`](crate::crashmc::fold_last_writers); this is
    /// the oracle the fold and the reference crash-set builder are held
    /// to.
    #[cfg(test)]
    pub(crate) fn apply(&self, img: &mut NvmmImage) {
        match self {
            JournalOp::Plain { line, data } => img.write_plain(*line, *data),
            JournalOp::Encrypted {
                line,
                ciphertext,
                counter,
            } => img.write_encrypted(*line, *ciphertext, *counter),
            JournalOp::CoLocated {
                line,
                ciphertext,
                counter,
            } => img.write_co_located(*line, *ciphertext, *counter),
            JournalOp::CounterLine { cline, counters } => img.write_counter_line(*cline, *counters),
            JournalOp::MacLine { mline, macs } => img.write_mac_line(*mline, *macs),
            JournalOp::TreeNode { node, digests } => img.write_tree_node(*node, *digests),
            JournalOp::PackedMeta {
                cline,
                counters,
                macs,
            } => {
                img.write_counter_line(*cline, *counters);
                img.write_mac_line(MacLineAddr(cline.0), *macs);
            }
        }
    }

    /// The NVMM target this write lands on.
    pub(crate) fn target(&self) -> NvmmTarget {
        match self {
            JournalOp::Plain { line, .. }
            | JournalOp::Encrypted { line, .. }
            | JournalOp::CoLocated { line, .. } => NvmmTarget::Data(*line),
            JournalOp::CounterLine { cline, .. } => NvmmTarget::Counter(*cline),
            JournalOp::MacLine { mline, .. } => NvmmTarget::Mac(*mline),
            JournalOp::TreeNode { node, .. } => NvmmTarget::TreeNode(*node),
            JournalOp::PackedMeta { cline, .. } => NvmmTarget::PackedMeta(*cline),
        }
    }

    /// Whether a later persisted `self` fully overwrites everything
    /// `earlier` would have written — used by the model checker's
    /// shadowing prune. Same-target full-line writes of the same shape
    /// qualify; a co-located write additionally updates the in-line
    /// counter, so only another co-located write covers it. The crash
    /// cursor answers this from a per-target index of the largest keys
    /// (`crashmc::Cover`); this pairwise form is the reference oracle's.
    #[cfg(test)]
    pub(crate) fn covers(&self, earlier: &JournalOp) -> bool {
        if self.target() != earlier.target() {
            return false;
        }
        match (self, earlier) {
            (JournalOp::CounterLine { .. }, JournalOp::CounterLine { .. }) => true,
            (JournalOp::CoLocated { .. }, _) => true,
            (_, JournalOp::CoLocated { .. }) => false,
            _ => true,
        }
    }
}

/// One channel's memory controller: a shard of
/// [`ShardedController`](crate::shard::ShardedController).
#[derive(Debug)]
pub(crate) struct MemoryController {
    design: Design,
    device: PcmDevice,
    queues: WriteQueues,
    engine: EncryptionEngine,
    /// Presence/dirtiness of counter lines on chip; values live in
    /// `counter_state`.
    counter_cache: Option<SetAssocCache<CounterLineAddr, ()>>,
    /// Architecturally latest counter values (the counter cache plus
    /// everything below it). Never forgets.
    counter_state: FxHashMap<CounterLineAddr, CounterLine>,
    /// Plaintext view of the newest write-back of every line; the fill
    /// source for LLC read misses.
    below_llc: FxHashMap<LineAddr, LineData>,
    journal: Vec<JournalRecord>,
    /// Next counter-atomic pair id for journal grouping.
    next_pair: u64,
    crypto_latency: Time,
    overhead: Time,
    compress_counters: bool,
    /// Stop-loss window: force a counter-line write-back after this many
    /// un-persisted bumps (None = disabled).
    stop_loss: Option<u64>,
    /// Un-persisted counter bumps per counter line.
    counter_lag: FxHashMap<CounterLineAddr, u64>,
    /// The integrity-verification subsystem, when the config enables it.
    integrity: Option<IntegrityState>,
    /// The injected positive-control bug, which picks the pair members
    /// journaled outside their pair (see [`Fault`]).
    fault: Option<Fault>,
    /// Channel-shard id stamped on every journal record.
    shard_id: usize,
    /// The tree path of the latest integrity-tree update, leaf-most
    /// first, kept so the write path refills it instead of allocating;
    /// always empty under a policy without a tree.
    path: Vec<(TreeNodeAddr, DigestLine)>,
    /// A counter-atomic write's journal records, kept for the same
    /// reason; empty between writes.
    pair_ops: Vec<JournalOp>,
}

impl MemoryController {
    /// Builds the controller `config` describes as channel shard
    /// `shard_id`, whose id every journal record carries.
    pub(crate) fn new(config: &SimConfig, shard_id: usize) -> Self {
        let counter_cache = config
            .design
            .has_counter_cache()
            .then(|| SetAssocCache::new(config.counter_cache.sets(), config.counter_cache.ways));
        Self {
            design: config.design,
            device: PcmDevice::new(config),
            queues: WriteQueues::new(
                config.data_write_queue_entries,
                config.counter_write_queue_entries,
                config.metadata_write_queue_entries,
                config.ca_pair_overhead,
            ),
            engine: EncryptionEngine::new(config.key),
            counter_cache,
            counter_state: FxHashMap::default(),
            below_llc: FxHashMap::default(),
            journal: Vec::new(),
            next_pair: 0,
            crypto_latency: config.crypto_latency,
            overhead: config.controller_overhead,
            compress_counters: config.compress_counters,
            stop_loss: config.stop_loss,
            counter_lag: FxHashMap::default(),
            integrity: IntegrityState::from_config(config),
            fault: config.fault,
            shard_id,
            path: Vec::new(),
            pair_ops: Vec::new(),
        }
    }

    /// The integrity policy in force: [`IntegrityPolicy::None`] when
    /// integrity is off.
    fn policy(&self) -> IntegrityPolicy {
        self.integrity
            .as_ref()
            .map_or(IntegrityPolicy::None, IntegrityState::policy)
    }

    fn current_counter_line(&self, cline: CounterLineAddr) -> CounterLine {
        self.counter_state.get(&cline).copied().unwrap_or_default()
    }

    /// Bytes charged for writing `cline` to NVMM: 64, or the
    /// base-delta-compressed size when compression is enabled.
    fn counter_line_cost(&self, cline: CounterLineAddr) -> u64 {
        if self.compress_counters {
            nvmm_crypto::compress::compressed_bytes(&self.current_counter_line(cline))
        } else {
            64
        }
    }

    /// Instantaneous (data, counter) write-queue occupancy at `t` — the
    /// quantity the telemetry sampler records at each epoch boundary.
    pub(crate) fn write_queue_depths(&self, t: Time) -> (usize, usize) {
        (
            self.queues.data_occupancy(t),
            self.queues.counter_occupancy(t),
        )
    }

    /// The instant the write-queue complex is fully drained and the
    /// pairing coordinator idle (see [`WriteQueues::quiesce_time`]): a
    /// crash at or after it has an empty in-flight set.
    pub(crate) fn quiesce_time(&self) -> Time {
        self.queues.quiesce_time()
    }

    /// Charges one write request for `target`: a line of wear, then the
    /// coalesced count when the queue merged it into a pending entry,
    /// or else the write count and the bytes that reach the device — 72
    /// for a co-located data line, the counter line's (possibly
    /// compressed) size, and that size plus the MAC half for a packed
    /// line.
    fn charge(&self, target: NvmmTarget, coalesced: bool, stats: &mut Stats) {
        stats.wear_line_writes += 1;
        let (written, merged) = match target {
            NvmmTarget::Data(_) => (
                &mut stats.nvmm_data_writes,
                &mut stats.coalesced_data_writes,
            ),
            NvmmTarget::Counter(_) => (
                &mut stats.nvmm_counter_writes,
                &mut stats.coalesced_counter_writes,
            ),
            NvmmTarget::Mac(_) | NvmmTarget::TreeNode(_) => (
                &mut stats.nvmm_metadata_writes,
                &mut stats.coalesced_metadata_writes,
            ),
            NvmmTarget::PackedMeta(_) => (
                &mut stats.nvmm_packed_meta_writes,
                &mut stats.coalesced_packed_meta_writes,
            ),
        };
        if coalesced {
            *merged += 1;
            return;
        }
        *written += 1;
        stats.bytes_written += match target {
            NvmmTarget::Data(_) if self.design.co_located() => 72,
            NvmmTarget::Counter(cline) => self.counter_line_cost(cline),
            NvmmTarget::PackedMeta(cline) => self.counter_line_cost(cline) + 64,
            _ => 64,
        };
    }

    /// Submits a plain write of `target` to its queue at `t` and charges
    /// it.
    fn submit(&mut self, target: NvmmTarget, t: Time, stats: &mut Stats) -> PlainReceipt {
        let receipt = self.queues.submit_plain(&mut self.device, target, t);
        self.charge(target, receipt.coalesced, stats);
        receipt
    }

    /// Journals a write submitted at `submitted` that ADR vouches for at
    /// `guaranteed`, in counter-atomic pair `pair` if it has one.
    fn append(
        &mut self,
        submitted: Time,
        guaranteed: Time,
        pair: Option<u64>,
        domain: Domain,
        op: JournalOp,
    ) {
        self.journal.push(JournalRecord {
            submitted_at: submitted,
            guaranteed_at: guaranteed,
            pair,
            domain,
            shard: self.shard_id,
            op,
        });
    }

    /// Submits the write `op` describes on its own and journals it in
    /// `domain`; ADR vouches for it once its queue accepts it. Returns
    /// that instant.
    fn write_plain(&mut self, op: JournalOp, domain: Domain, t: Time, stats: &mut Stats) -> Time {
        let accepted = self.submit(op.target(), t, stats).accepted;
        self.append(t, accepted, None, domain, op);
        accepted
    }

    /// Probes the counter cache for `cline`. On a hit returns `None`; on
    /// a miss fills the line (possibly writing back a dirty victim) and
    /// returns the time at which the counter arrives from NVMM.
    fn probe_counter_cache(
        &mut self,
        cline: CounterLineAddr,
        t: Time,
        stats: &mut Stats,
    ) -> Option<Time> {
        let Some(cache) = self.counter_cache.as_mut() else {
            return Some(t); // no counter cache: counters are never on chip
        };
        if cache.get(&cline).is_some() {
            stats.counter_cache_hits += 1;
            return None;
        }
        stats.counter_cache_misses += 1;
        let victim = cache.insert(cline, (), false);
        // Fill from NVMM: one counter-region read (§5.2.1). Co-located
        // designs take the counter from the widened data line instead.
        let fill_done = if self.design.co_located() {
            t
        } else {
            stats.nvmm_counter_reads += 1;
            self.device
                .schedule(NvmmTarget::Counter(cline), AccessKind::Read, t)
                .done
        };
        if let Some(victim) = victim.filter(|v| v.dirty) {
            stats.counter_cache_evictions += 1;
            self.write_counter_line(victim.key, self.mac_dirty(victim.key), t, stats);
        }
        Some(fill_done)
    }

    /// Whether `cline`'s MAC line is dirty on chip, so the counter line
    /// must persist together with it.
    fn mac_dirty(&self, cline: CounterLineAddr) -> bool {
        self.integrity
            .as_ref()
            .is_some_and(|i| i.is_dirty(MetaKey::Mac(MacLineAddr(cline.0))))
    }

    /// Persists `cline`'s current counters: the one counter-line write,
    /// for counter-cache evictions, `counter_cache_writeback`, stop-loss
    /// flushes and MAC-line evictions. With `with_mac` its MAC line goes
    /// too, as one packed line under colocated and otherwise as a pair
    /// sharing one guarantee instant. The MAC binds the counter, so
    /// recovery must see both halves from the same snapshot — persisting
    /// them apart would manufacture MAC violations out of a perfectly
    /// legal crash. Cleans the cached copies and returns the guarantee
    /// time.
    fn write_counter_line(
        &mut self,
        cline: CounterLineAddr,
        with_mac: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let counters = self.current_counter_line(cline);
        let mline = MacLineAddr(cline.0);
        let macs = self.integrity.as_mut().filter(|_| with_mac).map(|i| {
            i.clean(MetaKey::Mac(mline));
            i.mac_snapshot(mline)
        });
        let domain = Domain::CounterQueue;
        let guaranteed = match macs {
            None => self.write_plain(JournalOp::CounterLine { cline, counters }, domain, t, stats),
            Some(macs) if self.policy().packed_meta() => {
                let op = JournalOp::PackedMeta {
                    cline,
                    counters,
                    macs,
                };
                self.write_plain(op, domain, t, stats)
            }
            Some(macs) => {
                let rc = self.submit(NvmmTarget::Counter(cline), t, stats);
                let rm = self.submit(NvmmTarget::Mac(mline), t, stats);
                let guaranteed = rc.accepted.max(rm.accepted);
                let pair = Some(self.next_pair);
                self.next_pair += 1;
                let counter_op = JournalOp::CounterLine { cline, counters };
                self.append(t, guaranteed, pair, domain, counter_op);
                let mac_op = JournalOp::MacLine { mline, macs };
                self.append(t, guaranteed, pair, domain, mac_op);
                guaranteed
            }
        };
        if let Some(cache) = self.counter_cache.as_mut() {
            cache.clean(&cline);
        }
        guaranteed
    }

    /// Persists a dirty metadata-cache victim: a MAC line drags its
    /// counter line along (they persist as a unit); a tree node goes out
    /// alone through the metadata queue.
    fn persist_meta_eviction(&mut self, key: MetaKey, t: Time, stats: &mut Stats) {
        stats.tree_cache_evictions += 1;
        match key {
            MetaKey::Mac(mline) => {
                self.write_counter_line(CounterLineAddr(mline.0), true, t, stats);
            }
            MetaKey::Node(node) => {
                let digests = self
                    .integrity
                    .as_ref()
                    .expect("only integrity caches tree nodes")
                    .tree_snapshot(node);
                let op = JournalOp::TreeNode { node, digests };
                self.write_plain(op, Domain::MetadataQueue, t, stats);
            }
        }
    }

    /// Services an LLC demand read miss issued at `t`. Returns the
    /// completion time and the line's plaintext payload.
    pub(crate) fn read(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> (Time, LineData) {
        stats.nvmm_reads += 1;
        let payload = self.below_llc.get(&line).copied().unwrap_or([0; 64]);
        let issue = t + self.overhead;
        let data = self
            .device
            .schedule(NvmmTarget::Data(line), AccessKind::Read, issue);

        let done = match self.design {
            Design::NoEncryption => data.done,
            Design::CoLocated => {
                // Serialized: decrypt only after the 72-byte line (and
                // its embedded counter) arrive (Fig. 6a).
                data.done + self.crypto_latency
            }
            Design::CoLocatedCounterCache => {
                match self.probe_counter_cache(line.counter_line(), issue, stats) {
                    // Overlap pad generation with the fetch (Fig. 6b).
                    None => data.done.max(issue + self.crypto_latency),
                    // Miss: the counter arrives with the 72-byte line, so
                    // the pad can only be generated after the fetch.
                    Some(_) => data.done + self.crypto_latency,
                }
            }
            Design::Ideal | Design::Fca | Design::Sca | Design::UnsafeNoAtomicity => {
                let cline = line.counter_line();
                match self.probe_counter_cache(cline, issue, stats) {
                    None => data.done.max(issue + self.crypto_latency),
                    // Miss: the read stalls until the counter line is
                    // fetched from NVMM, then pays the pad latency
                    // (§5.2.1 "if a read access misses the counter cache,
                    // it has to stall").
                    Some(fill_done) => data.done.max(fill_done + self.crypto_latency),
                }
            }
        };
        (done, payload)
    }

    /// Accepts a write-back (eviction or `clwb`) of `line` carrying
    /// `data`, annotated counter-atomic or not. Returns the time at which
    /// the write's durability is guaranteed by ADR.
    pub(crate) fn writeback(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        self.below_llc.insert(line, data);
        if counter_atomic {
            stats.counter_atomic_writes += 1;
        } else {
            stats.plain_writes += 1;
        }
        match self.design {
            Design::NoEncryption => {
                self.write_plain(JournalOp::Plain { line, data }, Domain::DataQueue, t, stats)
            }
            Design::CoLocated | Design::CoLocatedCounterCache => {
                let enc = self.engine.encrypt(line.0, &data);
                // A counter cache, when there is one, stays warm for
                // future reads; the counter itself travels with the line.
                if let Some(cache) = self.counter_cache.as_mut() {
                    cache.insert(line.counter_line(), (), false);
                }
                let op = JournalOp::CoLocated {
                    line,
                    ciphertext: enc.ciphertext,
                    counter: enc.counter,
                };
                self.write_plain(op, Domain::DataQueue, t + self.crypto_latency, stats)
            }
            Design::Ideal | Design::Fca | Design::Sca | Design::UnsafeNoAtomicity => {
                self.writeback_separate(line, data, counter_atomic, t, stats)
            }
        }
    }

    fn writeback_separate(
        &mut self,
        line: LineAddr,
        data: LineData,
        counter_atomic: bool,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let cline = line.counter_line();
        let slot = line.counter_slot().slot;

        // Encryption engine: the line's counter is bumped by one (the
        // standard per-line minor-counter scheme — consecutive values
        // keep counter lines compressible and, with stop-loss, make the
        // post-crash candidate window bounded).
        let counters = self.counter_state.entry(cline).or_default();
        let counter = counters.get(slot).bump();
        counters.set(slot, counter);
        let counters = *counters;
        let ciphertext = self.engine.encrypt_with(line.0, &data, counter);
        let t_enq = t + self.crypto_latency;

        // Counter cache bookkeeping: write probes fill on miss without
        // stalling the write (§5.2.1 — the fresh counter is used for
        // encryption immediately; the fill is background traffic).
        let _ = self.probe_counter_cache(cline, t, stats);

        let policy = self.policy();
        let enforce_ca = counter_atomic && self.design.enforces_counter_atomicity()
            || self.design.all_writes_counter_atomic()
            // Path-in-pair integrity (strict, pipelined) makes every
            // write counter-atomic: the leaf-to-root tree update only
            // stays consistent if the counter it digests lands with it.
            || policy.persists_path_in_pair();

        // One metadata update per write: the new MAC, the refolded tree
        // path, and one touch of both in the metadata cache. A
        // counter-atomic write persists its MAC line with the pair, so
        // the cached copy is clean; the path nodes are clean when the
        // path rides the pair too, and under phoenix, whose tree is
        // reconstructible state that never reaches NVMM. Otherwise they
        // stay dirty on chip beside the dirty counter and reach NVMM with
        // the counter's own flush or on eviction.
        let mut evicted = Vec::new();
        if let Some(integ) = self.integrity.as_mut() {
            let mline = integ.record_mac(line, counter, &data);
            if policy.has_tree() {
                integ.update_tree_path(cline, &counters.to_bytes(), &mut self.path);
            }
            let node_dirty = !policy.persists_path_in_pair() && !policy.phoenix();
            evicted = self.touch_meta(mline, !enforce_ca, node_dirty, stats);
        }

        let guaranteed = if enforce_ca {
            self.persist_pair(line, ciphertext, counter, t_enq, stats)
        } else {
            // Plain data write; the counter stays dirty on chip until a
            // counter_cache_writeback or an eviction (§4.2's reordering
            // window).
            if let Some(cache) = self.counter_cache.as_mut() {
                cache.get_mut(&cline, true);
            }
            let op = JournalOp::Encrypted {
                line,
                ciphertext,
                counter,
            };
            self.write_plain(op, Domain::DataQueue, t_enq, stats)
        };
        for key in evicted {
            self.persist_meta_eviction(key, t_enq, stats);
        }
        // Stop-loss (Osiris-style): after `n` un-persisted counter bumps
        // on this counter line, force a write-back so the post-crash
        // candidate window stays bounded.
        if let Some(n) = self.stop_loss.filter(|_| !enforce_ca) {
            let lag = self.counter_lag.entry(cline).or_default();
            *lag += 1;
            if *lag >= n {
                *lag = 0;
                self.write_counter_line(cline, self.mac_dirty(cline), guaranteed, stats);
            }
        }
        guaranteed
    }

    /// Touches a write's MAC line, then the tree path it just refolded
    /// (empty without a tree), in the metadata cache, marking each dirty
    /// or clean and charging each probe. Returns the dirty victims, which
    /// the caller persists once the write is journaled.
    fn touch_meta(
        &mut self,
        mline: MacLineAddr,
        mac_dirty: bool,
        node_dirty: bool,
        stats: &mut Stats,
    ) -> Vec<MetaKey> {
        let mut evicted = Vec::new();
        let Some(integ) = self.integrity.as_mut() else {
            return evicted;
        };
        let path = self
            .path
            .iter()
            .map(|&(n, _)| (MetaKey::Node(n), node_dirty));
        for (key, dirty) in std::iter::once((MetaKey::Mac(mline), mac_dirty)).chain(path) {
            let (victim, hit) = integ.touch(key, dirty);
            if hit {
                stats.tree_cache_hits += 1;
            } else {
                stats.tree_cache_misses += 1;
            }
            evicted.extend(victim);
        }
        evicted
    }

    /// Persists a counter-atomic write as one ready-bit pair (§5.2.2):
    /// the data line and its counter line — the packed counter+MAC line
    /// under colocated — enter the paired queues together, and the
    /// integrity metadata rides the pair: the MAC line, the tree path
    /// under strict and pipelined, and a due epoch summary under
    /// phoenix. Every member shares the returned guarantee instant, or
    /// the ready-bit atomicity tears.
    fn persist_pair(
        &mut self,
        line: LineAddr,
        ciphertext: LineData,
        counter: Counter,
        t: Time,
        stats: &mut Stats,
    ) -> Time {
        let policy = self.policy();
        let (cline, mline) = (line.counter_line(), line.mac_line());
        let counters = self.current_counter_line(cline);
        let counter_target = if policy.packed_meta() {
            NvmmTarget::PackedMeta(cline)
        } else {
            NvmmTarget::Counter(cline)
        };
        let r = self.queues.submit_counter_atomic(
            &mut self.device,
            NvmmTarget::Data(line),
            counter_target,
            t,
        );
        if r.pairing_wait > Time::ZERO {
            stats.pairing_stalls += 1;
            stats.pairing_stall += r.pairing_wait;
        }
        self.charge(NvmmTarget::Data(line), false, stats);
        self.charge(counter_target, r.counter_coalesced, stats);
        // The pair persists this counter line's current snapshot; the
        // cached copy is clean.
        if let Some(cache) = self.counter_cache.as_mut() {
            cache.clean(&cline);
        }

        let mut guaranteed = r.ready;
        let mut members = std::mem::take(&mut self.pair_ops);
        // Members an injected bug journals outside the pair, each
        // guaranteed the instant the metadata queue accepted it.
        let mut escaped: Vec<(Time, JournalOp)> = Vec::new();
        members.push(JournalOp::Encrypted {
            line,
            ciphertext,
            counter,
        });
        let macs = self.integrity.as_ref().map(|i| i.mac_snapshot(mline));
        members.push(match macs {
            Some(macs) if policy.packed_meta() => JournalOp::PackedMeta {
                cline,
                counters,
                macs,
            },
            _ => JournalOp::CounterLine { cline, counters },
        });
        if let Some(macs) = macs.filter(|_| !policy.packed_meta()) {
            let accepted = self.submit(NvmmTarget::Mac(mline), t, stats).accepted;
            guaranteed = guaranteed.max(accepted);
            members.push(JournalOp::MacLine { mline, macs });
        }

        if policy.persists_path_in_pair() {
            let path = std::mem::take(&mut self.path);
            for (i, &(node, digests)) in path.iter().enumerate() {
                let accepted = self.submit(NvmmTarget::TreeNode(node), t, stats).accepted;
                let op = JournalOp::TreeNode { node, digests };
                // Parent-first escapes the whole path; a dropped
                // dependency escapes its root.
                let escapes = match self.fault {
                    Some(Fault::TreeParentFirst) => true,
                    Some(Fault::DroppedRootDependency) => i + 1 == path.len(),
                    _ => false,
                };
                if escapes {
                    escaped.push((accepted, op));
                } else {
                    guaranteed = guaranteed.max(accepted);
                    members.push(op);
                }
            }
            self.path = path;
            if let Some(integ) = self.integrity.as_mut() {
                if policy.serializes_root() {
                    // Strict: root updates serialize through the
                    // root-update engine.
                    if self.fault != Some(Fault::TreeParentFirst) {
                        if integ.root_free > guaranteed {
                            stats.root_update_stalls += 1;
                            stats.root_update_stall += integ.root_free - guaranteed;
                            guaranteed = integ.root_free;
                        }
                        guaranteed += self.crypto_latency;
                        integ.root_free = guaranteed;
                    }
                } else if self.fault != Some(Fault::DroppedRootDependency) {
                    // Pipelined: in-cache dependency tracking (Freij et
                    // al.) only clamps this pair's guarantee to never run
                    // ahead of the previous pair's — root writes overlap
                    // instead of serializing through the root engine, so
                    // no crypto latency is added and no stall taken.
                    if integ.root_free > guaranteed {
                        stats.root_update_overlaps += 1;
                        guaranteed = integ.root_free;
                    }
                    integ.root_free = guaranteed;
                }
            }
        }

        let phoenix = self.integrity.as_mut().filter(|_| policy.phoenix());
        if let Some(seq) = phoenix.and_then(|i| i.phoenix_epoch(cline)) {
            let (node, digests) = crate::integrity::phoenix_summary(cline, &counters, seq);
            let accepted = self.submit(NvmmTarget::TreeNode(node), t, stats).accepted;
            stats.phoenix_epoch_writes += 1;
            let op = JournalOp::TreeNode { node, digests };
            if self.fault == Some(Fault::StaleEpoch) {
                escaped.push((accepted, op));
            } else {
                guaranteed = guaranteed.max(accepted);
                members.push(op);
            }
        }

        let pair = Some(self.next_pair);
        self.next_pair += 1;
        for op in members.drain(..) {
            self.append(t, guaranteed, pair, Domain::Pairing, op);
        }
        self.pair_ops = members;
        for (accepted, op) in escaped {
            self.append(t, accepted, None, Domain::MetadataQueue, op);
        }
        guaranteed
    }

    /// `counter_cache_writeback()` for the counter line covering `line`
    /// (§4.3): flushes the dirty counter line to the (ready) counter
    /// write queue without invalidating it. Returns the guarantee time.
    pub(crate) fn counter_writeback(&mut self, line: LineAddr, t: Time, stats: &mut Stats) -> Time {
        stats.counter_cache_writebacks += 1;
        let cline = line.counter_line();
        let dirty = self
            .counter_cache
            .as_ref()
            .is_some_and(|c| c.is_dirty(&cline));
        if !self.design.honors_counter_cache_writeback() || !dirty {
            return t;
        }
        self.write_counter_line(cline, self.mac_dirty(cline), t, stats)
    }

    /// The controller's encryption engine (for recovery decryption).
    pub(crate) fn engine(&self) -> &EncryptionEngine {
        &self.engine
    }

    /// Number of journaled NVMM writes.
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The raw journal, in journal order (for the shard merge layer).
    pub(crate) fn journal(&self) -> &[JournalRecord] {
        &self.journal
    }

    /// Moves the whole journal out, leaving it empty.
    pub(crate) fn take_journal(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.journal)
    }

    /// The journal itself, for tests that stage journals no controller
    /// design emits.
    #[cfg(test)]
    pub(crate) fn journal_mut(&mut self) -> &mut Vec<JournalRecord> {
        &mut self.journal
    }

    /// Retires what no submission at or after `watermark` can reach,
    /// for batched-journal compaction
    /// ([`crate::shard::ShardedController::compact_through`]); the
    /// caller guarantees every later request arrives at or after it.
    ///
    /// Returns the compactable journal prefix: the records before the
    /// first one submitted at or after `watermark`. The journal is not
    /// sorted by `submitted_at` (a counter write-back can journal behind
    /// a pair whose submission includes the pad latency), so a record
    /// submitted before `watermark` that follows one submitted after it
    /// stays: the merge order places it after that record. The prefix
    /// is the journal's own buffer; `spare`, an empty buffer, becomes
    /// the live journal and takes the records after the cut, so nothing
    /// before the cut is copied.
    ///
    /// Also drops the write queues' coalescing entries whose drain began
    /// by `watermark` ([`WriteQueues::retire_through`]).
    pub(crate) fn retire_through(
        &mut self,
        watermark: Time,
        mut spare: Vec<JournalRecord>,
    ) -> Vec<JournalRecord> {
        self.queues.retire_through(watermark);
        let n = self
            .journal
            .iter()
            .position(|rec| rec.submitted_at >= watermark)
            .unwrap_or(self.journal.len());
        spare.extend(self.journal.drain(n..));
        std::mem::replace(&mut self.journal, spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::IntegritySpec;
    use crate::nvmm::LineRead;
    use crate::shard::ShardedController;
    use nvmm_crypto::mac::MacEngine;

    /// A one-shard controller complex: the datapaths under test, reached
    /// the way the replay engine reaches them.
    fn ctl(design: Design) -> (ShardedController, Stats) {
        let cfg = SimConfig::single_core(design);
        (ShardedController::new(&cfg), Stats::new(1))
    }

    /// [`crate::integrity::verify_image`] with fresh engines for `key`.
    fn verify(img: &NvmmImage, spec: IntegritySpec, key: [u8; 16]) -> Result<(), String> {
        let (engine, mac_engine) = (EncryptionEngine::new(key), MacEngine::new(key));
        crate::integrity::verify_image(img, spec, &engine, &mac_engine)
    }

    #[test]
    fn no_encryption_roundtrip() {
        let (mut c, mut s) = ctl(Design::NoEncryption);
        let data = [7u8; 64];
        let g = c.writeback(LineAddr(1), data, false, Time::ZERO, &mut s);
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(1), c.engine()),
            LineRead::Clean(data)
        );
        assert_eq!(s.bytes_written, 64);
    }

    #[test]
    fn co_located_write_is_atomic_at_any_crash_point() {
        let (mut c, mut s) = ctl(Design::CoLocated);
        let data = [9u8; 64];
        let g = c.writeback(LineAddr(2), data, false, Time::ZERO, &mut s);
        // Any crash at/after the guarantee sees a decryptable line.
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(2), c.engine()),
            LineRead::Clean(data)
        );
        // Before the guarantee: line simply absent (neither half landed).
        let img = c
            .crash_set(Time::ZERO.saturating_sub(Time::from_ps(1)))
            .baseline();
        assert!(img.read_line(LineAddr(2), c.engine()).is_clean());
        assert_eq!(s.bytes_written, 72);
    }

    #[test]
    fn fca_write_decryptable_once_guaranteed() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [3u8; 64];
        let g = c.writeback(LineAddr(5), data, false, Time::from_ns(10), &mut s);
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(5), c.engine()),
            LineRead::Clean(data)
        );
        // Data + counter both journaled.
        assert_eq!(s.nvmm_data_writes, 1);
        assert_eq!(s.nvmm_counter_writes, 1);
        assert_eq!(s.bytes_written, 128);
    }

    #[test]
    fn fca_never_exposes_half_a_pair() {
        let (mut c, mut s) = ctl(Design::Fca);
        let data = [4u8; 64];
        let g = c.writeback(LineAddr(6), data, false, Time::from_ns(10), &mut s);
        // Sweep a dense set of crash times around the write: the line is
        // either fully absent or fully decryptable — never garbled.
        for ps in 0..200 {
            let t = Time::from_ps(ps * 200);
            let img = c.crash_set(t).baseline();
            assert!(
                img.read_line(LineAddr(6), c.engine()).is_clean(),
                "crash at {t} must not observe a half-persisted pair (guarantee at {g})"
            );
        }
    }

    #[test]
    fn sca_plain_write_without_ccwb_garbles_on_crash() {
        // The paper's motivating failure: data persists, counter lives
        // only in the counter cache.
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [8u8; 64];
        let g = c.writeback(LineAddr(7), data, false, Time::ZERO, &mut s);
        let img = c.crash_set(g + Time::from_ns(1000)).baseline();
        let r = img.read_line(LineAddr(7), c.engine());
        assert!(
            !r.is_clean(),
            "counter never persisted: decryption must fail"
        );
        assert_ne!(r.bytes(), data);
    }

    #[test]
    fn sca_ccwb_makes_line_recoverable() {
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [8u8; 64];
        c.writeback(LineAddr(7), data, false, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(7), Time::from_ns(100), &mut s);
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(7), c.engine()),
            LineRead::Clean(data)
        );
    }

    #[test]
    fn sca_counter_atomic_write_always_clean() {
        let (mut c, mut s) = ctl(Design::Sca);
        let data = [1u8; 64];
        c.writeback(LineAddr(9), data, true, Time::from_ns(5), &mut s);
        for ns in 0..600 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            assert!(img.read_line(LineAddr(9), c.engine()).is_clean());
        }
        assert_eq!(s.counter_atomic_writes, 1);
    }

    #[test]
    fn unsafe_design_ignores_ccwb() {
        let (mut c, mut s) = ctl(Design::UnsafeNoAtomicity);
        let data = [2u8; 64];
        c.writeback(LineAddr(3), data, true, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(3), Time::from_ns(100), &mut s);
        let img = c.crash_set(g + Time::from_ns(1_000_000)).baseline();
        assert!(
            !img.read_line(LineAddr(3), c.engine()).is_clean(),
            "unsafe design persists no counters, even for annotated writes"
        );
    }

    #[test]
    fn read_returns_latest_writeback_payload() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(4), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(4), [2; 64], false, Time::from_ns(50), &mut s);
        let (_, payload) = c.read(LineAddr(4), Time::from_ns(100), &mut s);
        assert_eq!(payload, [2; 64]);
    }

    #[test]
    fn unwritten_read_returns_zeros() {
        let (mut c, mut s) = ctl(Design::Sca);
        let (_, payload) = c.read(LineAddr(1234), Time::ZERO, &mut s);
        assert_eq!(payload, [0; 64]);
    }

    #[test]
    fn co_located_read_slower_than_counter_cache_hit() {
        let (mut c1, mut s1) = ctl(Design::CoLocated);
        let (done_serial, _) = c1.read(LineAddr(1), Time::ZERO, &mut s1);

        let (mut c2, mut s2) = ctl(Design::CoLocatedCounterCache);
        // Warm the counter cache with a write, then read.
        c2.writeback(LineAddr(1), [0; 64], false, Time::ZERO, &mut s2);
        let t = Time::from_ns(2000);
        let (done_overlap, _) = c2.read(LineAddr(1), t, &mut s2);
        assert!(
            done_serial > done_overlap - t,
            "serialized decrypt must cost more than overlapped"
        );
    }

    #[test]
    fn counter_cache_hit_and_miss_accounting() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(10), [0; 64], false, Time::ZERO, &mut s); // miss (cold)
        c.writeback(LineAddr(11), [0; 64], false, Time::from_ns(1), &mut s); // hit (same cline)
        assert_eq!(s.counter_cache_misses, 1);
        assert_eq!(s.counter_cache_hits, 1);
    }

    #[test]
    fn ideal_ignores_ccwb_but_counts_it() {
        let (mut c, mut s) = ctl(Design::Ideal);
        c.writeback(LineAddr(1), [0; 64], false, Time::ZERO, &mut s);
        let before = s.nvmm_counter_writes;
        c.counter_writeback(LineAddr(1), Time::from_ns(10), &mut s);
        assert_eq!(
            s.nvmm_counter_writes, before,
            "ideal persists no counters on ccwb"
        );
        assert_eq!(s.counter_cache_writebacks, 1);
    }

    #[test]
    fn compressed_counters_charge_less_traffic() {
        let mut cfg = SimConfig::single_core(Design::Sca);
        cfg.compress_counters = true;
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        let before = s.bytes_written;
        c.counter_writeback(LineAddr(1), Time::from_ns(100), &mut s);
        let counter_bytes = s.bytes_written - before;
        assert!(
            counter_bytes < 64,
            "clustered counters must compress below a raw line ({counter_bytes}B)"
        );
        assert!(
            counter_bytes >= 17,
            "compressed line still carries base + deltas"
        );
    }

    #[test]
    fn uncompressed_counters_charge_full_lines() {
        let (mut c, mut s) = ctl(Design::Sca);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        let before = s.bytes_written;
        c.counter_writeback(LineAddr(1), Time::from_ns(100), &mut s);
        assert_eq!(s.bytes_written - before, 64);
    }

    #[test]
    fn wear_report_counts_targets_and_hot_spots() {
        let cfg = SimConfig::single_core(Design::Fca);
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        // Three writes to one line, one to another.
        for t in 0..3 {
            c.writeback(
                LineAddr(5),
                [t; 64],
                false,
                Time::from_ns(t as u64 * 1000),
                &mut s,
            );
        }
        c.writeback(LineAddr(900), [9; 64], false, Time::from_ns(5000), &mut s);
        let wear = c.wear_report();
        // Data lines 5 and 900 plus their counter lines, every pair's
        // counter half counted even when the queue coalesced it.
        assert_eq!(wear.distinct_lines, 4);
        assert_eq!(wear.max_line_writes, 3, "line 5 absorbed three writes");
        assert_eq!(wear.total_writes, s.wear_line_writes);
    }

    fn integ_ctl(
        policy: crate::config::IntegrityPolicy,
    ) -> (ShardedController, Stats, [u8; 16], IntegritySpec) {
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
        let spec = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        (ShardedController::new(&cfg), Stats::new(1), key, spec)
    }

    #[test]
    fn strict_write_verifies_at_every_crash_instant() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Strict);
        let data = [5u8; 64];
        let g = c.writeback(LineAddr(12), data, false, Time::ZERO, &mut s);
        for ns in 0..800 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            verify(&img, spec, key).unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(12), c.engine()),
            LineRead::Clean(data)
        );
        assert!(s.nvmm_metadata_writes > 0, "MAC + tree path were written");
    }

    #[test]
    fn strict_turns_every_write_into_a_full_metadata_pair() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, _, _) = integ_ctl(IntegrityPolicy::Strict);
        c.writeback(LineAddr(1), [1; 64], false, Time::ZERO, &mut s);
        // data + counter + MAC + tree_levels path nodes, all journaled.
        let cfg = SimConfig::single_core(Design::Sca);
        assert_eq!(c.journal_len(), 3 + cfg.tree_levels as usize);
        assert!(s.metadata_write_amplification() > 1.0);
    }

    #[test]
    fn lazy_ccwb_carries_the_mac_line_with_the_counter() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Lazy);
        let data = [6u8; 64];
        c.writeback(LineAddr(3), data, false, Time::ZERO, &mut s);
        let g = c.counter_writeback(LineAddr(3), Time::from_ns(100), &mut s);
        assert!(
            s.nvmm_metadata_writes >= 1,
            "the flush persists the MAC line too"
        );
        // At every crash instant the image passes the MAC oracle: the
        // counter and its MAC only ever persist together.
        for ns in 0..800 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            verify(&img, spec, key).unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(3), c.engine()),
            LineRead::Clean(data)
        );
    }

    #[test]
    fn mac_only_persists_no_tree_nodes() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::MacOnly);
        c.writeback(LineAddr(4), [9; 64], true, Time::ZERO, &mut s);
        let img = c.build_image();
        assert_eq!(img.tree_nodes().count(), 0);
        assert!(verify(&img, spec, key).is_ok());
    }

    #[test]
    fn injected_tree_bug_lets_parents_race_ahead_of_children() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Strict)
            .with_fault(Fault::TreeParentFirst);
        let spec = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        // Just before the pair's guarantee the eagerly-persisted tree
        // nodes are on NVMM but the counter line they digest is not.
        let img = c.crash_set(g.saturating_sub(Time::from_ps(1))).baseline();
        let err = verify(&img, spec, key).expect_err("parent-first ordering must be flagged");
        assert!(err.contains("never persisted"), "{err}");
    }

    #[test]
    fn same_line_overwrites_apply_in_order() {
        let (mut c, mut s) = ctl(Design::Fca);
        c.writeback(LineAddr(8), [1; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(8), [2; 64], false, Time::from_ns(1), &mut s);
        let img = c.build_image();
        assert_eq!(
            img.read_line(LineAddr(8), c.engine()),
            LineRead::Clean([2; 64])
        );
    }

    #[test]
    fn pipelined_verifies_at_every_crash_instant_with_zero_stalls() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Pipelined);
        // Back-to-back pairs: strict would serialize their root updates;
        // pipelined overlaps them and must still stay crash-clean.
        c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        c.writeback(LineAddr(13), [6; 64], false, Time::from_ps(1), &mut s);
        for ns in 0..1200 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            verify(&img, spec, key).unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        assert_eq!(s.root_update_stalls, 0, "pipelined never stalls the root");
        // Same journal shape as strict: the guarantee is identical,
        // only the serialization is gone.
        let cfg = SimConfig::single_core(Design::Sca);
        assert_eq!(c.journal_len(), 2 * (3 + cfg.tree_levels as usize));
    }

    #[test]
    fn pipelined_root_clamp_keeps_guarantees_monotonic() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, _, _) = integ_ctl(IntegrityPolicy::Pipelined);
        let mut last = Time::ZERO;
        for i in 0..6u64 {
            let g = c.writeback(LineAddr(i), [i as u8; 64], false, Time::from_ps(i), &mut s);
            assert!(
                g >= last,
                "pair guarantees must chain monotonically under the clamp"
            );
            last = g;
        }
    }

    #[test]
    fn colocated_pair_journals_one_packed_record() {
        use crate::config::IntegrityPolicy;
        let (mut c, mut s, key, spec) = integ_ctl(IntegrityPolicy::Colocated);
        let data = [7u8; 64];
        let g = c.writeback(LineAddr(9), data, true, Time::ZERO, &mut s);
        // data + packed (counter, MAC) — two records where the split
        // layout journals three; that is the SecPM halving.
        assert_eq!(c.journal_len(), 2);
        assert_eq!(s.nvmm_packed_meta_writes, 1);
        assert_eq!(s.nvmm_counter_writes, 0, "no separate counter write");
        assert_eq!(s.nvmm_metadata_writes, 0, "no separate MAC write");
        for ns in 0..800 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            verify(&img, spec, key).unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.crash_set(g).baseline();
        assert_eq!(
            img.read_line(LineAddr(9), c.engine()),
            LineRead::Clean(data)
        );
        assert!(
            !img.persisted_mac(LineAddr(9)).is_unwritten(),
            "the packed record must land the MAC with the counter"
        );
    }

    #[test]
    fn colocated_halves_metadata_amplification_vs_mac_only() {
        use crate::config::IntegrityPolicy;
        let (mut c1, mut s1, _, _) = integ_ctl(IntegrityPolicy::MacOnly);
        let (mut c2, mut s2, _, _) = integ_ctl(IntegrityPolicy::Colocated);
        for i in 0..16u64 {
            let t = Time::from_ns(i * 40);
            c1.writeback(LineAddr(i * 8), [i as u8; 64], true, t, &mut s1);
            c2.writeback(LineAddr(i * 8), [i as u8; 64], true, t, &mut s2);
        }
        let split = s1.metadata_write_amplification();
        let packed = s2.metadata_write_amplification();
        assert!(
            (packed - split / 2.0).abs() < 1e-9,
            "distinct counter lines: packed amp {packed} must be exactly half of {split}"
        );
    }

    #[test]
    fn phoenix_persists_only_epoch_summaries() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Phoenix);
        let spec = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        for i in 0..8u64 {
            c.writeback(
                LineAddr(i),
                [i as u8; 64],
                true,
                Time::from_ns(i * 50),
                &mut s,
            );
        }
        for ns in 0..2000 {
            let img = c.crash_set(Time::from_ns(ns)).baseline();
            verify(&img, spec, key).unwrap_or_else(|e| panic!("crash at {ns}ns: {e}"));
        }
        let img = c.build_image();
        assert!(
            img.tree_nodes()
                .all(|(n, _)| n.level == crate::integrity::PHOENIX_SUMMARY_LEVEL),
            "phoenix must never persist a real tree node"
        );
        // cfg.phoenix_epoch_every = 4 and all 8 writes hit counter line
        // 0, so the 4th and 8th pairs carried summaries.
        assert_eq!(s.phoenix_epoch_writes, 2);
        assert!(img.tree_nodes().count() >= 1);
    }

    #[test]
    fn injected_dropped_dependency_lets_the_root_race_its_children() {
        use crate::config::IntegrityPolicy;
        let cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Pipelined)
            .with_fault(Fault::DroppedRootDependency);
        let spec = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], false, Time::ZERO, &mut s);
        // Just before the pair's guarantee the dropped-dependency root
        // is on NVMM but the children it digests are not.
        let img = c.crash_set(g.saturating_sub(Time::from_ps(1))).baseline();
        let err = verify(&img, spec, key).expect_err("the dropped root dependency must be flagged");
        assert!(
            err.contains("never persisted") || err.contains("ahead of child"),
            "{err}"
        );
    }

    #[test]
    fn injected_stale_epoch_summary_is_flagged() {
        use crate::config::IntegrityPolicy;
        let mut cfg = SimConfig::single_core(Design::Sca)
            .with_integrity(IntegrityPolicy::Phoenix)
            .with_fault(Fault::StaleEpoch);
        cfg.phoenix_epoch_every = 1;
        let spec = IntegritySpec::from_config(&cfg);
        let key = cfg.key;
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        let g = c.writeback(LineAddr(12), [5; 64], true, Time::ZERO, &mut s);
        // Just before the pair's guarantee the eagerly-journaled epoch
        // summary claims a counter line that never landed.
        let img = c.crash_set(g.saturating_sub(Time::from_ps(1))).baseline();
        let err = verify(&img, spec, key).expect_err("the stale epoch summary must be flagged");
        assert!(err.contains("stale epoch"), "{err}");
    }
}
