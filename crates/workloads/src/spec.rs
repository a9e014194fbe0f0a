//! Workload specifications.
//!
//! The paper evaluates five NVM workloads manipulating persistent data
//! structures (§6.2): array swap, queue, hash table, B-tree and
//! red-black tree. A [`WorkloadSpec`] captures the knobs the evaluation
//! sweeps: operation count, data-structure footprint (Fig. 15), and the
//! per-transaction payload size (Fig. 16's "number of cache lines
//! committed at each transaction").

use nvmm_core::txn::Mechanism;

/// The five persistent data-structure workloads of §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Swaps random items in a persistent array.
    ArraySwap,
    /// Randomly en/dequeues items to/from a persistent queue.
    Queue,
    /// Inserts random values into a persistent hash table.
    HashTable,
    /// Inserts random values into a persistent B-tree.
    BTree,
    /// Inserts random values into a persistent red-black tree.
    RbTree,
}

impl WorkloadKind {
    /// All five workloads, in the order the paper's figures plot them.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::ArraySwap,
        WorkloadKind::Queue,
        WorkloadKind::HashTable,
        WorkloadKind::BTree,
        WorkloadKind::RbTree,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::ArraySwap => "Array",
            WorkloadKind::Queue => "Queue",
            WorkloadKind::HashTable => "Hash",
            WorkloadKind::BTree => "B-Tree",
            WorkloadKind::RbTree => "RB-Tree",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which data structure to exercise.
    pub kind: WorkloadKind,
    /// Number of transactions per core.
    pub ops: usize,
    /// Approximate footprint of the data structure in bytes (drives
    /// counter-cache behaviour; Fig. 15 sweeps 100–1000 MB).
    pub footprint_bytes: u64,
    /// Extra 64-byte payload lines logged and mutated per transaction
    /// (Fig. 16 sweeps 1–64).
    pub payload_lines: usize,
    /// Random read probes per transaction across the structure's
    /// footprint — the lookups/scans that accompany updates in real
    /// applications, and the traffic the counter cache serves (Fig. 15).
    pub read_probes: usize,
    /// Versioning mechanism the transactions use (undo or redo
    /// logging) — the paper's insight applies to both (§4.2).
    pub mechanism: Mechanism,
    /// Skew exponent for probe reads: 1.0 = uniform over the footprint;
    /// larger values concentrate probes toward low addresses (the hot
    /// upper levels of a structure), producing the re-reference locality
    /// real traversals have. Fig. 15 uses a skewed distribution so the
    /// counter cache has something to capture.
    pub probe_skew: f64,
    /// Seed for the deterministic operation stream; each core derives
    /// its own stream from `seed ^ core`.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The default evaluation configuration used by the Fig. 12–14
    /// experiments: a modest footprint with a 1-line payload.
    pub fn evaluation_default(kind: WorkloadKind) -> Self {
        Self {
            kind,
            ops: 400,
            footprint_bytes: 4 * 1024 * 1024,
            payload_lines: 1,
            read_probes: 24,
            mechanism: Mechanism::UndoLog,
            probe_skew: 1.0,
            seed: 42,
        }
    }

    /// A small configuration for unit and crash tests.
    pub fn smoke(kind: WorkloadKind) -> Self {
        Self {
            kind,
            ops: 12,
            footprint_bytes: 64 * 1024,
            payload_lines: 1,
            read_probes: 2,
            mechanism: Mechanism::UndoLog,
            probe_skew: 1.0,
            seed: 7,
        }
    }

    /// Returns a copy with a different operation count.
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// Returns a copy with a different footprint.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Returns a copy with a different per-transaction payload.
    pub fn with_payload_lines(mut self, lines: usize) -> Self {
        self.payload_lines = lines;
        self
    }

    /// Returns a copy with a different per-transaction probe count.
    pub fn with_read_probes(mut self, probes: usize) -> Self {
        self.read_probes = probes;
        self
    }

    /// Returns a copy with a different versioning mechanism.
    pub fn with_mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Returns a copy with a different probe-skew exponent.
    pub fn with_probe_skew(mut self, skew: f64) -> Self {
        self.probe_skew = skew;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), WorkloadKind::ALL.len());
    }

    #[test]
    fn builders_override_fields() {
        let s = WorkloadSpec::smoke(WorkloadKind::Queue)
            .with_ops(99)
            .with_footprint(123)
            .with_payload_lines(4)
            .with_seed(5);
        assert_eq!(s.ops, 99);
        assert_eq!(s.footprint_bytes, 123);
        assert_eq!(s.payload_lines, 4);
        assert_eq!(s.seed, 5);
        assert_eq!(s.kind, WorkloadKind::Queue);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(WorkloadKind::BTree.to_string(), "B-Tree");
    }
}
