//! System configuration — the paper's Table 2, plus the counter-atomicity
//! design under evaluation.

use crate::time::Time;

/// The six evaluated designs (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// An NVMM system without any encryption.
    NoEncryption,
    /// Counter-mode encryption with zero counter-atomicity overhead: an
    /// upper bound on performance, not a crash-consistent design.
    Ideal,
    /// Data and counter co-located in a 72-byte line over a 72-bit bus;
    /// no counter cache, so every read serializes fetch and decryption
    /// (§3.2.1, Fig. 5a).
    CoLocated,
    /// Co-located 72-byte lines plus a counter cache that lets read
    /// decryption overlap the fetch on a hit (§3.2.1, Fig. 5b).
    CoLocatedCounterCache,
    /// Full counter-atomicity: separate counter region, existing 64-bit
    /// bus, every write is counter-atomic via paired data/counter write
    /// queue entries with ready bits (§3.2.2).
    Fca,
    /// Selective counter-atomicity: only writes annotated
    /// `CounterAtomic` are paired; all other counter updates coalesce in
    /// the counter cache until `counter_cache_writeback()` (§4).
    Sca,
    /// Counter-mode encryption with **no** counter-atomicity support at
    /// all: counters persist only on counter-cache eviction and
    /// `counter_cache_writeback` is ignored. Crash-unsafe by design;
    /// exists to demonstrate the paper's motivating failure (Fig. 4).
    UnsafeNoAtomicity,
}

impl Design {
    /// All designs, in the order the paper's figures present them.
    pub const ALL: [Design; 7] = [
        Design::NoEncryption,
        Design::Ideal,
        Design::Sca,
        Design::Fca,
        Design::CoLocated,
        Design::CoLocatedCounterCache,
        Design::UnsafeNoAtomicity,
    ];

    /// Whether the design encrypts memory at all.
    pub fn encrypted(self) -> bool {
        !matches!(self, Design::NoEncryption)
    }

    /// Whether counters travel inside the 72-byte data line (wider bus)
    /// rather than in a separate counter region.
    pub fn co_located(self) -> bool {
        matches!(self, Design::CoLocated | Design::CoLocatedCounterCache)
    }

    /// Whether the design has an on-chip counter cache.
    pub fn has_counter_cache(self) -> bool {
        matches!(
            self,
            Design::Ideal
                | Design::CoLocatedCounterCache
                | Design::Fca
                | Design::Sca
                | Design::UnsafeNoAtomicity
        )
    }

    /// Whether writes annotated counter-atomic are actually enforced as
    /// ready-bit-paired queue entries.
    pub fn enforces_counter_atomicity(self) -> bool {
        matches!(self, Design::Fca | Design::Sca)
    }

    /// Whether *every* write is treated as counter-atomic.
    pub fn all_writes_counter_atomic(self) -> bool {
        matches!(self, Design::Fca)
    }

    /// Whether `counter_cache_writeback()` flushes dirty counter lines to
    /// the (ADR-protected) counter write queue. `Ideal` ignores it — by
    /// definition it pays *no* counter-atomicity cost, trading away crash
    /// consistency (it is a performance upper bound, §6.1).
    pub fn honors_counter_cache_writeback(self) -> bool {
        matches!(self, Design::Fca | Design::Sca)
    }

    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            Design::NoEncryption => "NoEncryption",
            Design::Ideal => "Ideal",
            Design::CoLocated => "Co-located",
            Design::CoLocatedCounterCache => "Co-located w/ C-Cache",
            Design::Fca => "FCA",
            Design::Sca => "SCA",
            Design::UnsafeNoAtomicity => "Unsafe (no atomicity)",
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Persistence policy of the integrity-verification subsystem
/// (`crate::integrity`): per-line MACs plus an N-ary counter/integrity
/// tree over the counter region, layered on top of a separate-counter
/// design. Selects *when* the metadata a data write dirties (MAC line +
/// tree path) persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntegrityPolicy {
    /// Integrity verification disabled (the paper's baseline model).
    None,
    /// Per-line MACs only, no tree — a lower bound on integrity cost.
    /// The MAC rides in the counter-atomic write set; otherwise it
    /// coalesces in the metadata cache until eviction or
    /// `counter_cache_writeback()`.
    MacOnly,
    /// MACs plus a lazily persisted tree: tree nodes coalesce in the
    /// metadata cache and persist on eviction only. Recovery rebuilds
    /// internal nodes from the persisted leaves (counter lines),
    /// Phoenix-style, so stale internal nodes are recoverable — only
    /// the leaves and MACs must be crash consistent.
    Lazy,
    /// MACs plus a strictly persisted tree: every write persists its
    /// dirty tree path leaf-to-root, counter-atomically with the data.
    /// Consecutive writes serialize on the root update — the paper's
    /// write-pressure story, amplified.
    Strict,
    /// Strict's persistence guarantee without its root serialization:
    /// in-cache dependency tracking coalesces leaf-to-root updates and
    /// lets consecutive root writes overlap, clamping each pair's
    /// guarantee instant to the previous root guarantee instead of
    /// stalling behind it (Freij et al., arXiv:2003.04693).
    Pipelined,
    /// Counters (and tree nodes) are allowed to be lost at a crash:
    /// only MACs and periodic epoch summaries persist, and recovery
    /// reconstructs the tree from the surviving counter lines, checking
    /// each persisted epoch claim against the image (Phoenix,
    /// arXiv:1911.01922).
    Phoenix,
    /// SecPM-style co-location (arXiv:1901.00620): each counter line's
    /// counters and its congruent MAC line travel in one packed
    /// metadata write, halving metadata write amplification. No tree.
    Colocated,
}

impl IntegrityPolicy {
    /// All policies. The original triad is in increasing
    /// persistence-cost order; the three relaxations follow.
    pub const ALL: [IntegrityPolicy; 7] = [
        IntegrityPolicy::None,
        IntegrityPolicy::MacOnly,
        IntegrityPolicy::Lazy,
        IntegrityPolicy::Strict,
        IntegrityPolicy::Pipelined,
        IntegrityPolicy::Phoenix,
        IntegrityPolicy::Colocated,
    ];

    /// Whether the integrity subsystem is active at all.
    pub fn enabled(self) -> bool {
        !matches!(self, IntegrityPolicy::None)
    }

    /// Whether the policy maintains the counter/integrity tree (MACs
    /// are maintained by every enabled policy). Phoenix maintains the
    /// tree *in cache only* — evictions persist nothing.
    pub fn has_tree(self) -> bool {
        matches!(
            self,
            IntegrityPolicy::Lazy
                | IntegrityPolicy::Strict
                | IntegrityPolicy::Pipelined
                | IntegrityPolicy::Phoenix
        )
    }

    /// Whether every write carries its dirty tree path inside its
    /// counter-atomic pair (strict and pipelined — they differ only in
    /// how root updates are ordered).
    pub fn persists_path_in_pair(self) -> bool {
        matches!(self, IntegrityPolicy::Strict | IntegrityPolicy::Pipelined)
    }

    /// Whether consecutive root updates serialize on a single engine
    /// (strict only; pipelined overlaps them).
    pub fn serializes_root(self) -> bool {
        matches!(self, IntegrityPolicy::Strict)
    }

    /// Whether counter and MAC lines travel in one packed metadata
    /// write (SecPM co-location).
    pub fn packed_meta(self) -> bool {
        matches!(self, IntegrityPolicy::Colocated)
    }

    /// Whether the policy is Phoenix-style: tree nodes never persist,
    /// recovery reconstructs them and audits persisted epoch summaries.
    pub fn phoenix(self) -> bool {
        matches!(self, IntegrityPolicy::Phoenix)
    }

    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            IntegrityPolicy::None => "no integrity",
            IntegrityPolicy::MacOnly => "mac-only",
            IntegrityPolicy::Lazy => "lazy",
            IntegrityPolicy::Strict => "strict",
            IntegrityPolicy::Pipelined => "pipelined",
            IntegrityPolicy::Phoenix => "phoenix",
            IntegrityPolicy::Colocated => "colocated",
        }
    }
}

impl std::fmt::Display for IntegrityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency.
    pub latency: Time,
}

impl CacheGeometry {
    /// Number of 64-byte lines this cache holds.
    pub fn lines(&self) -> usize {
        (self.capacity_bytes / 64) as usize
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> usize {
        let lines = self.lines();
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "cache of {} lines not divisible into {}-way sets",
            lines,
            self.ways
        );
        lines / self.ways
    }
}

/// PCM device timing (Table 2, from the paper's references to
/// Lee et al. / Xu et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcmTiming {
    /// Row-to-column command delay.
    pub t_rcd: Time,
    /// Column access (read) latency.
    pub t_cl: Time,
    /// Column write delay.
    pub t_cwd: Time,
    /// Four-activation window (rate limit across banks).
    pub t_faw: Time,
    /// Write-to-read turnaround within a bank.
    pub t_wtr: Time,
    /// Write-recovery (cell programming) time — the dominant PCM write
    /// cost.
    pub t_wr: Time,
}

impl PcmTiming {
    /// The paper's PCM parameters: tRCD/tCL/tCWD/tFAW/tWTR/tWR =
    /// 48/15/13/50/7.5/300 ns at a 533 MHz DDR3 interface.
    pub fn paper_pcm() -> Self {
        Self {
            t_rcd: Time::from_ns(48),
            t_cl: Time::from_ns(15),
            t_cwd: Time::from_ns(13),
            t_faw: Time::from_ns(50),
            t_wtr: Time::from_ns_f64(7.5),
            t_wr: Time::from_ns(300),
        }
    }

    /// Scales array read latency (tRCD + tCL) by `factor`, as the Fig. 17a
    /// sweep does (10x slower … 4x faster).
    pub fn scale_read(mut self, factor: f64) -> Self {
        self.t_rcd = Time::from_ns_f64(self.t_rcd.as_ns_f64() * factor);
        self.t_cl = Time::from_ns_f64(self.t_cl.as_ns_f64() * factor);
        self
    }

    /// Scales write latency (tWR) by `factor`, as the Fig. 17b sweep does.
    pub fn scale_write(mut self, factor: f64) -> Self {
        self.t_wr = Time::from_ns_f64(self.t_wr.as_ns_f64() * factor);
        self
    }

    /// Device service time of one read access (activate + column read).
    pub fn read_service(&self) -> Time {
        self.t_rcd + self.t_cl
    }

    /// Device service time of one write access (column write + restore).
    pub fn write_service(&self) -> Time {
        self.t_cwd + self.t_wr
    }
}

/// A positive-control bug: a crash-consistency fault injected into an
/// otherwise correct run, which the crash model checker must flag. The
/// checker is trusted only because every fault here fails it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The program forgets its `counter_cache_writeback()` calls (the
    /// paper's Fig. 3(a)): the front end drops every
    /// [`TraceEvent::CounterCacheWriteback`](crate::trace::TraceEvent)
    /// unexecuted, still counting it as a processed event, so a data
    /// line can persist while its counter stays stranded on chip.
    MissingCounterWritebacks,
    /// Strict (or pipelined) integrity persists its tree path as plain
    /// metadata writes at submission time instead of inside the
    /// counter-atomic pair, and strict skips its root serialization: a
    /// parent can become durable before the child counter line it
    /// digests.
    TreeParentFirst,
    /// Pipelined integrity drops the root's dependency edge: the root
    /// persists as a plain metadata write at submission time instead of
    /// riding (and clamping) the pair, so a crash can leave a root ahead
    /// of the path it covers (Freij et al., arXiv:2003.04693).
    DroppedRootDependency,
    /// Phoenix integrity persists the epoch summary as a plain metadata
    /// write at submission time instead of inside its pair, so a crash
    /// can leave a summary claiming counter sums the surviving counter
    /// lines never reached (arXiv:1911.01922).
    StaleEpoch,
    /// The program forgets its `CounterAtomic` annotations (the paper's
    /// Fig. 4): the front end replays every
    /// [`TraceEvent::Write`](crate::trace::TraceEvent) as a plain store,
    /// so under SCA a log entry or commit flag can persist while its
    /// counter stays on chip. Under FCA, and under strict or pipelined
    /// integrity, the fault leaves every crash state as it was: they
    /// make every write counter-atomic whatever its annotation, so only
    /// the `counter_atomic_writes`/`plain_writes` split moves.
    MissingCounterAtomic,
}

impl Fault {
    /// Every fault: the model checker's positive controls.
    pub const ALL: [Fault; 5] = [
        Fault::MissingCounterWritebacks,
        Fault::TreeParentFirst,
        Fault::DroppedRootDependency,
        Fault::StaleEpoch,
        Fault::MissingCounterAtomic,
    ];
}

/// The tallest integrity tree a configuration may ask for: level `l`
/// indexes counter lines by their bits above `3 * l`, and a 64-bit
/// counter-line index has no bits above `3 * 21`.
pub const MAX_TREE_LEVELS: u32 = 21;

/// Full system configuration (Table 2 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Counter-atomicity design under evaluation.
    pub design: Design,
    /// Number of cores; each runs its own workload instance (§6.3.2).
    pub cores: usize,
    /// Private per-core L1 data cache: 64 KB, 8-way.
    pub l1: CacheGeometry,
    /// Per-core L2 slice: 2 MB, 8-way. (The paper's L2 is shared but each
    /// core runs an independent workload on a disjoint region, so a slice
    /// per core is behaviorally identical; see DESIGN.md.)
    pub l2: CacheGeometry,
    /// Shared counter cache: 1 MB *per core*, 16-way (Table 2).
    pub counter_cache: CacheGeometry,
    /// Data write queue capacity (64).
    pub data_write_queue_entries: usize,
    /// Counter write queue capacity (16).
    pub counter_write_queue_entries: usize,
    /// PCM timing parameters.
    pub pcm: PcmTiming,
    /// Number of PCM banks.
    pub banks: usize,
    /// Bus time to transfer one line (64 B over a 64-bit DDR3-1066 bus,
    /// or 72 B over a 72-bit bus — same eight beats either way).
    pub bus_transfer: Time,
    /// AES pad generation / encryption-engine latency (40 ns, Table 2).
    pub crypto_latency: Time,
    /// Cost of the ready-bit pairing handshake for one counter-atomic
    /// pair. The coordinator that matches a data entry with its counter
    /// entry and sets both ready bits is a single serialized unit
    /// (Fig. 7a's dependent-write ordering): consecutive pairs chain on
    /// it. Under FCA — where *every* write is a pair — this unit
    /// saturates as cores are added, which is precisely the scalability
    /// cliff the paper measures (§6.3.2); SCA sends only two pairs per
    /// transaction through it.
    pub ca_pair_overhead: Time,
    /// L1 hit latency is part of `l1`; this is the fixed cost of
    /// traversing the memory controller front end.
    pub controller_overhead: Time,
    /// When true, counter-line writes to NVMM are base-delta
    /// compressed: write-*traffic* accounting charges the encoded size
    /// instead of 64 bytes (§6.3.3's extension). Device *timing* still
    /// charges a full line write — PCM programs the row regardless; the
    /// benefit is bandwidth/energy/lifetime, which is what Fig. 14's
    /// metric measures.
    pub compress_counters: bool,
    /// Osiris-style stop-loss window: when set, the controller forces a
    /// counter-line write-back after this many un-persisted counter
    /// bumps, bounding how far any persisted counter can lag its
    /// ciphertext. Post-crash recovery can then find the true counter by
    /// searching at most this many candidates (with ECC as the oracle) —
    /// making even the `UnsafeNoAtomicity` design recoverable. See the
    /// `recover_with_window` APIs in `nvmm-sim::nvmm` / `nvmm-core`.
    pub stop_loss: Option<u64>,
    /// AES-128 key for the encryption engine.
    pub key: [u8; 16],
    /// When set, the run records a [`Timeline`](crate::telemetry::Timeline)
    /// of per-epoch telemetry samples with this epoch length; `None`
    /// (the default) records nothing and pays nothing.
    pub telemetry_epoch: Option<Time>,
    /// Integrity-verification persistence policy (default
    /// [`IntegrityPolicy::None`]). Enabled policies require a
    /// separate-counter encrypted design (not co-located).
    pub integrity: IntegrityPolicy,
    /// On-chip metadata cache for MAC lines and integrity-tree nodes:
    /// 256 KB, 8-way by default. Only consulted when `integrity` is
    /// enabled.
    pub metadata_cache: CacheGeometry,
    /// Metadata (MAC/tree) write queue capacity (16).
    pub metadata_write_queue_entries: usize,
    /// Height of the N-ary (arity-8) counter/integrity tree: internal
    /// levels above the counter-line leaves, root included. The default
    /// of 10 covers 8^10 counter lines — 512 GiB of data space — which
    /// accommodates every per-core region the workloads use. At most
    /// [`MAX_TREE_LEVELS`].
    pub tree_levels: u32,
    /// Number of channel-sharded memory controllers. Lines interleave
    /// across shards at counter-line granularity
    /// ([`crate::addr::ShardMap`]); each shard owns its own write
    /// queues, counter-cache slice, metadata queue, and device channel.
    /// `1` (the default) is the paper's single-controller pipeline and
    /// is bit-identical to the pre-sharding simulator.
    pub shards: usize,
    /// The positive-control bug this run injects, if any (default
    /// `None`): a crash-consistency fault the crash model checker must
    /// catch (see [`Fault`]).
    pub fault: Option<Fault>,
    /// Under the phoenix policy, every `phoenix_epoch_every`-th
    /// counter-atomic pair on a shard carries an epoch summary of its
    /// counter line (1 = every pair). Ignored by other policies.
    pub phoenix_epoch_every: u64,
}

impl SimConfig {
    /// Table 2 configuration for `design` with `cores` cores.
    pub fn table2(design: Design, cores: usize) -> Self {
        assert!(cores >= 1, "at least one core required");
        Self {
            design,
            cores,
            l1: CacheGeometry {
                capacity_bytes: 64 * 1024,
                ways: 8,
                latency: Time::from_ns(1),
            },
            l2: CacheGeometry {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 8,
                latency: Time::from_ns(5),
            },
            counter_cache: CacheGeometry {
                capacity_bytes: cores as u64 * 1024 * 1024,
                ways: 16,
                latency: Time::from_ns(1),
            },
            data_write_queue_entries: 64,
            counter_write_queue_entries: 16,
            pcm: PcmTiming::paper_pcm(),
            banks: 16,
            bus_transfer: Time::from_ns_f64(7.5),
            crypto_latency: Time::from_ns(40),
            ca_pair_overhead: Time::from_ns(100),
            controller_overhead: Time::from_ns(2),
            compress_counters: false,
            stop_loss: None,
            key: *b"nvmm-sim aes key",
            telemetry_epoch: None,
            integrity: IntegrityPolicy::None,
            metadata_cache: CacheGeometry {
                capacity_bytes: 256 * 1024,
                ways: 8,
                latency: Time::from_ns(1),
            },
            metadata_write_queue_entries: 16,
            tree_levels: 10,
            shards: 1,
            fault: None,
            phoenix_epoch_every: 4,
        }
    }

    /// Default single-core Table 2 configuration.
    pub fn single_core(design: Design) -> Self {
        Self::table2(design, 1)
    }

    /// Replaces the counter cache capacity (Fig. 15 sweep).
    pub fn with_counter_cache_bytes(mut self, bytes: u64) -> Self {
        self.counter_cache.capacity_bytes = bytes;
        self
    }

    /// Enables per-epoch telemetry with the given epoch length.
    pub fn with_telemetry_epoch(mut self, epoch: Time) -> Self {
        self.telemetry_epoch = Some(epoch);
        self
    }

    /// Selects an integrity-verification persistence policy.
    pub fn with_integrity(mut self, policy: IntegrityPolicy) -> Self {
        self.integrity = policy;
        self
    }

    /// Injects `fault`, a positive control for the crash model checker.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// `with_fault(Fault::TreeParentFirst)` under its older name, which
    /// the benchmark's `mc_bughunt` workload still spells.
    pub fn with_tree_bug(self) -> Self {
        self.with_fault(Fault::TreeParentFirst)
    }

    /// Selects the number of channel-sharded controllers
    /// (see [`SimConfig::shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        self.shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = SimConfig::single_core(Design::Sca);
        assert_eq!(c.l1.lines(), 1024);
        assert_eq!(c.l2.sets(), 4096);
        assert_eq!(c.counter_cache.ways, 16);
        assert_eq!(c.data_write_queue_entries, 64);
        assert_eq!(c.counter_write_queue_entries, 16);
        assert_eq!(c.pcm.t_wr, Time::from_ns(300));
        assert_eq!(c.shards, 1);
        assert_eq!(crate::device::CELL_ENDURANCE, 100_000_000);
        assert_eq!(crate::attack::ATTACK_VICTIMS, 4);
    }

    #[test]
    fn counter_cache_scales_with_cores() {
        let c = SimConfig::table2(Design::Sca, 4);
        assert_eq!(c.counter_cache.capacity_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn design_predicates() {
        assert!(!Design::NoEncryption.encrypted());
        assert!(Design::Fca.all_writes_counter_atomic());
        assert!(!Design::Sca.all_writes_counter_atomic());
        assert!(Design::Sca.enforces_counter_atomicity());
        assert!(!Design::UnsafeNoAtomicity.enforces_counter_atomicity());
        assert!(Design::CoLocated.co_located());
        assert!(!Design::CoLocated.has_counter_cache());
        assert!(Design::CoLocatedCounterCache.has_counter_cache());
        assert!(!Design::UnsafeNoAtomicity.honors_counter_cache_writeback());
        assert!(!Design::Ideal.honors_counter_cache_writeback());
        assert!(Design::Sca.honors_counter_cache_writeback());
    }

    #[test]
    fn latency_scaling() {
        let pcm = PcmTiming::paper_pcm().scale_read(2.0);
        assert_eq!(pcm.t_rcd, Time::from_ns(96));
        assert_eq!(pcm.t_wr, Time::from_ns(300));
        let pcm = PcmTiming::paper_pcm().scale_write(0.5);
        assert_eq!(pcm.t_wr, Time::from_ns(150));
        assert_eq!(pcm.t_rcd, Time::from_ns(48));
    }

    #[test]
    fn read_write_service_times() {
        let pcm = PcmTiming::paper_pcm();
        assert_eq!(pcm.read_service(), Time::from_ns(63));
        assert_eq!(pcm.write_service(), Time::from_ns(313));
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let _ = SimConfig::table2(Design::Sca, 0);
    }

    #[test]
    fn integrity_policy_predicates() {
        assert!(!IntegrityPolicy::None.enabled());
        assert!(IntegrityPolicy::MacOnly.enabled());
        assert!(!IntegrityPolicy::MacOnly.has_tree());
        assert!(IntegrityPolicy::Lazy.has_tree());
        assert!(!IntegrityPolicy::Lazy.serializes_root());
        assert!(IntegrityPolicy::Strict.has_tree());
        // Pipelined shares strict's in-pair path persistence but not
        // its root serialization.
        assert!(IntegrityPolicy::Pipelined.has_tree());
        assert!(IntegrityPolicy::Pipelined.persists_path_in_pair());
        assert!(IntegrityPolicy::Strict.persists_path_in_pair());
        assert!(!IntegrityPolicy::Pipelined.serializes_root());
        assert!(IntegrityPolicy::Strict.serializes_root());
        // Phoenix keeps a tree in cache but is neither strict-family
        // nor packed.
        assert!(IntegrityPolicy::Phoenix.has_tree());
        assert!(IntegrityPolicy::Phoenix.phoenix());
        assert!(!IntegrityPolicy::Phoenix.persists_path_in_pair());
        assert!(!IntegrityPolicy::Phoenix.packed_meta());
        // Colocated has no tree at all — just packed counter+MAC lines.
        assert!(IntegrityPolicy::Colocated.enabled());
        assert!(!IntegrityPolicy::Colocated.has_tree());
        assert!(IntegrityPolicy::Colocated.packed_meta());
        assert!(!IntegrityPolicy::Lazy.packed_meta());
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected_by_builder() {
        let _ = SimConfig::single_core(Design::Sca).with_shards(0);
    }

    #[test]
    fn integrity_defaults_off() {
        let c = SimConfig::single_core(Design::Sca);
        assert_eq!(c.integrity, IntegrityPolicy::None);
        assert_eq!(c.fault, None);
        assert_eq!(c.phoenix_epoch_every, 4);
        assert_eq!(c.metadata_cache.capacity_bytes, 256 * 1024);
        assert_eq!(c.tree_levels, 10);
    }
}
