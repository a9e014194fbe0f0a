//! Property-based tests over the simulator's internal invariants:
//! write-queue acceptance, device reservations, functional memory, and
//! the cache model — driven through the public crate APIs.

use nvmm::core::pmem::Pmem;
use nvmm::crypto::{Counter, EncryptionEngine};
use nvmm::sim::addr::{ByteAddr, CounterLineAddr, LineAddr, NvmmTarget};
use nvmm::sim::cache::SetAssocCache;
use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::device::{AccessKind, PcmDevice};
use nvmm::sim::wq::WriteQueues;
use nvmm::sim::Time;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Plain-write acceptance never precedes submission and drains never
    /// precede acceptance, for arbitrary submission patterns.
    #[test]
    fn wq_acceptance_is_causal(
        submissions in proptest::collection::vec((0u64..64, 0u64..2000), 1..80),
    ) {
        let cfg = SimConfig::single_core(Design::Sca);
        let mut dev = PcmDevice::new(&cfg);
        let mut wq = WriteQueues::new(8, 4, 4, Time::from_ns(100));
        let mut t = Time::ZERO;
        for (line, gap_ns) in submissions {
            t += Time::from_ns(gap_ns);
            let r = wq.submit_plain(&mut dev, NvmmTarget::Data(LineAddr(line)), t);
            prop_assert!(r.accepted >= t, "accepted {} before submit {t}", r.accepted);
            prop_assert!(r.drained >= r.accepted, "drained before accepted");
        }
    }

    /// Counter-atomic pairs: readiness is causal, monotonic across
    /// consecutive pairs (the coordinator chain), and never precedes
    /// either half's queue acceptance window.
    #[test]
    fn ca_pair_readiness_is_monotonic(
        submissions in proptest::collection::vec((0u64..64, 0u64..3000), 1..60),
    ) {
        let cfg = SimConfig::single_core(Design::Sca);
        let mut dev = PcmDevice::new(&cfg);
        let mut wq = WriteQueues::new(16, 4, 4, Time::from_ns(100));
        let mut t = Time::ZERO;
        let mut last_ready = Time::ZERO;
        for (line, gap_ns) in submissions {
            t += Time::from_ns(gap_ns);
            let r = wq.submit_counter_atomic(
                &mut dev,
                NvmmTarget::Data(LineAddr(line)),
                NvmmTarget::Counter(CounterLineAddr(line / 8)),
                t,
            );
            prop_assert!(r.ready > t, "handshake takes time");
            prop_assert!(r.ready >= last_ready, "pair readiness must chain monotonically");
            prop_assert!(r.drained >= r.ready, "drains wait for ready bits");
            last_ready = r.ready;
        }
    }

    /// Device reservations on one bank never overlap and the bus spaces
    /// all bursts.
    #[test]
    fn device_reservations_serialize_per_bank(
        accesses in proptest::collection::vec((0u64..256, prop::bool::ANY, 0u64..500), 1..60),
    ) {
        let cfg = SimConfig::single_core(Design::Sca);
        let banks = cfg.banks;
        let mut dev = PcmDevice::new(&cfg);
        let mut per_bank: std::collections::HashMap<(usize, bool), Time> =
            std::collections::HashMap::new();
        let mut t = Time::ZERO;
        for (line, is_read, gap_ns) in accesses {
            t += Time::from_ns(gap_ns);
            let target = NvmmTarget::Data(LineAddr(line));
            let kind = if is_read { AccessKind::Read } else { AccessKind::Write };
            let sched = dev.schedule(target, kind, t);
            prop_assert!(sched.start >= t);
            prop_assert!(sched.done > sched.start);
            let key = (target.bank(banks), is_read);
            if let Some(&prev_done) = per_bank.get(&key) {
                prop_assert!(
                    sched.start >= prev_done,
                    "bank reservation overlap: start {} < previous done {}",
                    sched.start,
                    prev_done
                );
            }
            per_bank.insert(key, sched.done);
        }
    }

    /// Functional memory behaves like a flat byte array: random writes
    /// then reads agree with a reference model.
    #[test]
    fn pmem_matches_reference_byte_array(
        writes in proptest::collection::vec((0u64..4096, proptest::collection::vec(any::<u8>(), 1..40)), 1..40),
    ) {
        let mut pm = Pmem::for_core(0);
        let mut model = vec![0u8; 8192];
        for (off, bytes) in &writes {
            let off = (*off).min(8192 - bytes.len() as u64);
            pm.write(ByteAddr(off), bytes);
            model[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        }
        let mut got = vec![0u8; 8192];
        pm.peek(ByteAddr(0), &mut got);
        prop_assert_eq!(got, model);
    }

    /// The cache never exceeds its capacity and a just-inserted line is
    /// always resident.
    #[test]
    fn cache_capacity_and_residency(
        keys in proptest::collection::vec(0u64..10_000, 1..400),
        sets in 1usize..16,
        ways in 1usize..8,
    ) {
        let mut c: SetAssocCache<u64, u64> = SetAssocCache::new(sets, ways);
        for &k in &keys {
            c.insert(k, k * 2, k % 3 == 0);
            prop_assert_eq!(c.peek(&k), Some(&(k * 2)), "inserted line must be resident");
            prop_assert!(c.len() <= sets * ways, "cache exceeded capacity");
        }
    }

    /// Counter-mode encryption is a bijection per (address, counter):
    /// distinct plaintexts map to distinct ciphertexts and back.
    #[test]
    fn encryption_is_injective(
        addr in 0u64..1_000_000,
        ctr in 1u64..u64::MAX,
        a in proptest::array::uniform32(any::<u8>()),
        b in proptest::array::uniform32(any::<u8>()),
    ) {
        prop_assume!(a != b);
        let e = EncryptionEngine::new([3; 16]);
        let mut pa = [0u8; 64];
        let mut pb = [0u8; 64];
        pa[..32].copy_from_slice(&a);
        pb[..32].copy_from_slice(&b);
        let ca = e.encrypt_with(addr, &pa, Counter(ctr));
        let cb = e.encrypt_with(addr, &pb, Counter(ctr));
        prop_assert_ne!(ca, cb, "XOR with one pad is injective");
        prop_assert_eq!(e.decrypt(addr, &ca, Counter(ctr)), pa);
    }

    /// Pairing invariants under arbitrary interleavings of plain and
    /// counter-atomic submissions: occupancy never exceeds capacity in
    /// either queue, the ready-bit backlog never underflows (it decays
    /// to exactly zero at the quiesce instant), and readiness chains
    /// monotonically.
    #[test]
    fn wq_mixed_fill_drain_ready_invariants(
        submissions in proptest::collection::vec(
            (0u64..64, prop::bool::ANY, 0u64..500), 1..80),
    ) {
        let cfg = SimConfig::single_core(Design::Sca);
        let mut dev = PcmDevice::new(&cfg);
        let mut wq = WriteQueues::new(8, 4, 4, Time::from_ns(100));
        let mut t = Time::ZERO;
        let mut last_ready = Time::ZERO;
        for (line, counter_atomic, gap_ns) in submissions {
            t += Time::from_ns(gap_ns);
            let probe = if counter_atomic {
                let r = wq.submit_counter_atomic(
                    &mut dev,
                    NvmmTarget::Data(LineAddr(line)),
                    NvmmTarget::Counter(CounterLineAddr(line / 8)),
                    t,
                );
                prop_assert!(r.ready >= last_ready, "ready bits must chain");
                last_ready = r.ready;
                r.ready
            } else {
                wq.submit_plain(&mut dev, NvmmTarget::Data(LineAddr(line)), t).accepted
            };
            prop_assert!(
                wq.data_occupancy(probe) <= wq.data_capacity(),
                "data queue over capacity"
            );
            prop_assert!(
                wq.counter_occupancy(probe) <= wq.counter_capacity(),
                "counter queue over capacity"
            );
        }
        // The backlog decays to zero, never below: at quiesce the queues
        // are drained, the coordinator is free, and both stay that way.
        let q = wq.quiesce_time();
        prop_assert_eq!(wq.pairing_backlog(q), Time::ZERO);
        prop_assert_eq!(wq.data_occupancy(q), 0);
        prop_assert_eq!(wq.counter_occupancy(q), 0);
        prop_assert_eq!(wq.pairing_backlog(q + Time::from_ns(1)), Time::ZERO);
        prop_assert!(q >= last_ready, "quiesce cannot precede the last ready bit");
    }

    /// The ready-bit pairing rule, end to end: drive a one-shard
    /// controller complex with random counter-atomic write sequences,
    /// crash at random instants, and enumerate every legal image — no
    /// image may expose a data line whose counter half is missing (a
    /// half-persisted pair).
    #[test]
    fn fca_random_sequences_never_expose_half_pair(
        writes in proptest::collection::vec((0u64..24, 0u64..200), 1..24),
        crash_ns in 0u64..4000,
    ) {
        use nvmm::sim::crashmc::EnumOpts;
        use nvmm::sim::shard::ShardedController;
        use nvmm::sim::stats::Stats;
        let cfg = SimConfig::single_core(Design::Fca);
        let mut c = ShardedController::new(&cfg);
        let mut s = Stats::new(1);
        let mut t = Time::ZERO;
        let mut latest: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (i, &(line, gap_ns)) in writes.iter().enumerate() {
            t += Time::from_ns(gap_ns);
            c.writeback(LineAddr(line), [i as u8; 64], false, t, &mut s);
            latest.insert(line, i as u8);
        }
        let set = c.crash_set(Time::from_ns(crash_ns));
        let en = set.enumerate(EnumOpts { max_images: 32, ..EnumOpts::default() });
        for (mask, img) in &en.images {
            prop_assert!(set.is_legal(mask));
            for &line in latest.keys() {
                let r = img.read_line(LineAddr(line), c.engine());
                prop_assert!(
                    r.is_clean() || matches!(r, nvmm::sim::nvmm::LineRead::Unwritten),
                    "mask {:?} at {crash_ns}ns exposed a half pair on line {line}: {r:?}",
                    mask.landed()
                );
            }
        }
    }

    /// Phoenix recovery is a fixpoint: reconstructing the integrity
    /// tree from an image's persisted counter lines, persisting that
    /// reconstruction back into the image (what recovery would do), and
    /// reconstructing again yields the identical tree — rerunning
    /// recovery after a crash *during* recovery converges to the same
    /// state.
    #[test]
    fn phoenix_reconstruction_is_a_fixpoint(
        lines in proptest::collection::vec(
            (0u64..64, proptest::array::uniform8(any::<u64>())), 1..24),
        levels in 1u32..4,
    ) {
        use nvmm::crypto::CounterLine;
        use nvmm::sim::integrity::reconstruct_tree;
        use nvmm::sim::nvmm::NvmmImage;
        let mut img = NvmmImage::new();
        for (cline, ctrs) in &lines {
            let mut cl = CounterLine::new();
            for (slot, &v) in ctrs.iter().enumerate() {
                cl.set(slot, Counter(v));
            }
            img.write_counter_line(CounterLineAddr(*cline), cl);
        }
        let first = reconstruct_tree(&img, levels);
        prop_assert!(!first.is_empty(), "non-empty leaf set must yield a tree");
        for &(node, digests) in &first {
            img.write_tree_node(node, digests);
        }
        let second = reconstruct_tree(&img, levels);
        prop_assert_eq!(&first, &second, "reconstruction must be a fixpoint");
        // And it is total over the leaves: every persisted counter line
        // has a level-1 parent in the reconstruction.
        for (cline, _) in img.counter_lines() {
            prop_assert!(
                first.iter().any(|(n, _)| n.level == 1 && n.index == cline.0 >> 3),
                "counter line {} has no reconstructed parent",
                cline.0
            );
        }
    }

    /// The SecPM packed metadata line is an exact bijection between the
    /// split (counter line, MAC line) layout and the colocated on-NVMM
    /// encoding, for arbitrary values including the reserved zero slots
    /// and the counter wraparound endpoints.
    #[test]
    fn packed_meta_line_roundtrips_exactly(
        ctrs in proptest::array::uniform8(any::<u64>()),
        macs in proptest::array::uniform8(any::<u64>()),
        wrap_slot in 0usize..8,
    ) {
        use nvmm::crypto::mac::{Mac, MacLine};
        use nvmm::crypto::{CounterLine, PackedMetaLine};
        let mut cl = CounterLine::new();
        let mut ml = MacLine::new();
        for slot in 0..8 {
            cl.set(slot, Counter(ctrs[slot]));
            ml.set(slot, Mac(macs[slot]));
        }
        // Pin one slot to the wrap boundary: bump(u64::MAX) skips the
        // reserved zero, and both endpoints must encode exactly.
        cl.set(wrap_slot, Counter(u64::MAX));
        let line = PackedMetaLine::from_parts(cl, ml);
        let back = PackedMetaLine::from_bytes(&line.to_bytes());
        prop_assert_eq!(back, line);
        prop_assert_eq!(back.counters, cl);
        prop_assert_eq!(back.macs, ml);
        prop_assert_eq!(back.get(wrap_slot).0, Counter(u64::MAX));
        let bumped = Counter(u64::MAX).bump();
        prop_assert!(!bumped.is_unwritten(), "wrap must skip the reserved zero");
    }

    /// Latency-histogram quantiles are monotone in the quantile for
    /// arbitrary sample streams: p50 ≤ p95 ≤ p99 ≤ p999 ≤ max, with
    /// the p100 endpoint exact, and every reported quantile is a value
    /// the histogram could actually have seen (never above the max).
    #[test]
    fn latency_hist_quantiles_are_monotone(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        use nvmm::sim::stats::LatencyHist;
        let mut h = LatencyHist::new();
        let mut max = 0u64;
        for &s in &samples {
            h.record(s);
            max = max.max(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), max);
        let qs = [0.5, 0.95, 0.99, 0.999, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", vals);
        }
        prop_assert_eq!(vals[4], max, "p100 must be the exact maximum");
        for &v in &vals {
            prop_assert!(v <= max, "a quantile above the maximum is impossible");
        }
    }

    /// Bucket-boundary correctness of the log-linear histogram: a
    /// single recorded sample comes back (at any interior quantile) as
    /// its bucket floor — never above the sample, exact below 32, and
    /// within one 1/32 sub-bucket of it above. Merging two histograms
    /// is indistinguishable from recording the concatenated stream.
    #[test]
    fn latency_hist_buckets_bound_their_samples(
        v in any::<u64>(),
        left in proptest::collection::vec(0u64..100_000, 0..50),
        right in proptest::collection::vec(0u64..100_000, 0..50),
    ) {
        use nvmm::sim::stats::LatencyHist;
        let mut h = LatencyHist::new();
        h.record(v);
        let floor = h.quantile(0.5);
        prop_assert!(floor <= v, "bucket floor {floor} above its sample {v}");
        if v < 32 {
            prop_assert_eq!(floor, v, "small values must be exact");
        } else {
            // Log-linear: 32 sub-buckets per octave, so the floor is
            // within 2^(msb-5) of the sample.
            let width = 1u64 << (63 - v.leading_zeros() - 5);
            prop_assert!(v - floor < width, "{v} beyond its sub-bucket width {width}");
        }
        prop_assert_eq!(h.quantile(1.0), v);

        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for &s in &left { a.record(s); both.record(s); }
        for &s in &right { b.record(s); both.record(s); }
        a.merge(&b);
        prop_assert_eq!(a.count(), both.count());
        prop_assert_eq!(a.max(), both.max());
        for q in [0.5, 0.95, 0.99, 0.999, 1.0] {
            prop_assert_eq!(a.quantile(q), both.quantile(q), "merge diverged at q={}", q);
        }
    }

    /// Replay determinism over arbitrary small workload shapes: two
    /// replays of the same trace agree on every statistic.
    #[test]
    fn replay_is_deterministic(seed in 0u64..500, ops in 2usize..6) {
        use nvmm::sim::system::{CrashSpec, System};
        use nvmm::workloads::{traces_for_cores, WorkloadKind, WorkloadSpec};
        let spec = WorkloadSpec::smoke(WorkloadKind::Queue).with_ops(ops).with_seed(seed);
        let traces = traces_for_cores(&spec, 1);
        let run = |traces: Vec<nvmm::sim::Trace>| {
            let out = System::new(SimConfig::single_core(Design::Sca), traces)
                .run(CrashSpec::None);
            (out.stats.runtime, out.stats.bytes_written, out.stats.nvmm_reads,
             out.stats.counter_cache_hits)
        };
        prop_assert_eq!(run(traces.clone()), run(traces));
    }
}

#[test]
fn wq_occupancy_is_bounded_by_capacity() {
    // Deterministic corner: flood a tiny queue and check occupancy.
    let cfg = SimConfig::single_core(Design::Sca);
    let mut dev = PcmDevice::new(&cfg);
    let mut wq = WriteQueues::new(4, 2, 2, Time::from_ns(100));
    for i in 0..50u64 {
        // Distinct lines on purpose (no coalescing).
        let r = wq.submit_plain(&mut dev, NvmmTarget::Data(LineAddr(i * 97)), Time::ZERO);
        assert!(
            wq.data_occupancy(r.accepted) <= 4,
            "occupancy exceeded capacity"
        );
    }
}
