//! Table 2: the simulated system configuration, printed from the live
//! `SimConfig` so the reproduction can be audited against the paper.

use nvmm_sim::config::{Design, SimConfig};

fn main() {
    let cfg = SimConfig::table2(Design::Sca, 1);
    println!("== Table 2 — system configuration ==\n");
    println!(
        "L1 D-cache            : {} KB, {}-way, {} latency",
        cfg.l1.capacity_bytes >> 10,
        cfg.l1.ways,
        cfg.l1.latency
    );
    println!(
        "L2 cache (per core)   : {} MB, {}-way, {} latency",
        cfg.l2.capacity_bytes >> 20,
        cfg.l2.ways,
        cfg.l2.latency
    );
    println!(
        "Counter cache         : {} MB per core, {}-way",
        cfg.counter_cache.capacity_bytes >> 20,
        cfg.counter_cache.ways
    );
    // Demand reads go straight to the device with priority over
    // writes (see `nvmm_sim::device`); no read queue bounds them.
    println!("Data read queue       : not modelled (paper: 32 entries)");
    println!(
        "Data write queue      : {} entries",
        cfg.data_write_queue_entries
    );
    println!(
        "Counter write queue   : {} entries",
        cfg.counter_write_queue_entries
    );
    println!("PCM banks             : {}", cfg.banks);
    println!(
        "tRCD/tCL/tCWD/tFAW    : {} / {} / {} / {}",
        cfg.pcm.t_rcd, cfg.pcm.t_cl, cfg.pcm.t_cwd, cfg.pcm.t_faw
    );
    println!(
        "tWTR/tWR              : {} / {}",
        cfg.pcm.t_wtr, cfg.pcm.t_wr
    );
    println!("Bus transfer per line : {}", cfg.bus_transfer);
    println!("En/decryption latency : {}", cfg.crypto_latency);
    println!("CA pairing handshake  : {}", cfg.ca_pair_overhead);
    println!("\n(paper Table 2: 64KB/32KB L1, 2MB L2, 1MB counter cache 16-way,");
    println!(" 32/64-entry read/write queues, 16-entry counter write queue,");
    println!(" PCM 48/15/13/50/7.5/300ns, 40ns en/decryption)");
}
