//! The paper's motivating example (Fig. 4): inserting a node into an
//! encrypted persistent linked list, with and without counter-atomicity.
//!
//! Three steps build the insertion: (1) create the node, (2) point its
//! `next` at the current head, (3) update the head pointer. When the
//! head pointer's *data* persists but its *encryption counter* does
//! not, post-crash decryption of the head yields garbage — the program
//! would chase a random pointer. Annotating the head `CounterAtomic`
//! (under a design that honors it) closes the window.
//!
//! ```sh
//! cargo run --release --example linked_list_crash
//! ```

use nvmm::core::pmem::{Pmem, RegionPlanner};
use nvmm::core::recovery::RecoveredMemory;
use nvmm::sim::addr::ByteAddr;
use nvmm::sim::config::{Design, SimConfig};
use nvmm::sim::system::breakpoint_images;

/// One list node: `item` at +0, `next` at +8 (0 = null).
const NODE_LINES: u64 = 1;

/// Inserts `node` (holding `item`) in front of `next` at `head`. The
/// head pointer update is annotated `CounterAtomic` iff `annotate` is
/// true.
fn insert(pm: &mut Pmem, head: ByteAddr, node: ByteAddr, item: u64, next: u64, annotate: bool) {
    // Step 1+2: create the node pointing at the current head target.
    pm.write_u64(node, item);
    pm.write_u64(ByteAddr(node.0 + 8), next);
    pm.clwb(node, 16);
    pm.counter_cache_writeback(node, 16);
    pm.persist_barrier();

    // Step 3: swing the head. This is the write Fig. 4 shows failing
    // when its counter is lost.
    if annotate {
        pm.write_u64_counter_atomic(head, node.0);
    } else {
        pm.write_u64(head, node.0);
    }
    pm.clwb(head, 8);
    pm.persist_barrier();
}

/// Builds the trace of two insertions into an empty list, item 1 then
/// item 3; returns it with the head pointer's address.
fn build_list(annotate: bool) -> (nvmm::sim::Trace, ByteAddr) {
    let mut pm = Pmem::for_core(0);
    let mut plan = RegionPlanner::new(pm.region());
    let head = plan.alloc_lines(1);
    let old_node = plan.alloc_lines(NODE_LINES);
    let new_node = plan.alloc_lines(NODE_LINES);
    insert(&mut pm, head, old_node, 1, 0, annotate);
    insert(&mut pm, head, new_node, 3, old_node.0, annotate);
    (pm.into_parts().0, head)
}

/// Walks the recovered list from `head`; returns the items seen (bounded).
fn walk(mem: &mut RecoveredMemory, head: ByteAddr) -> Vec<u64> {
    let mut items = Vec::new();
    let mut ptr = mem.read_u64(head);
    for _ in 0..8 {
        if ptr == 0 {
            break;
        }
        // A garbled head may point anywhere; the read itself tells us.
        items.push(mem.read_u64(ByteAddr(ptr)));
        ptr = mem.read_u64(ByteAddr(ptr + 8));
    }
    items
}

fn run(design: Design, annotate: bool) {
    let (trace, head) = build_list(annotate);
    let cfg = SimConfig::single_core(design);
    let mut garbled_any = false;
    let mut worst = None;
    for (t, image) in breakpoint_images(&cfg, &trace, 0) {
        let mut mem = RecoveredMemory::new(image, cfg.key);
        let items = walk(&mut mem, head);
        if !mem.all_reads_clean() {
            garbled_any = true;
            worst = Some((t, items));
        }
    }
    match (annotate, garbled_any) {
        (false, true) => {
            let (t, items) = worst.unwrap();
            println!(
                "  plain head update : GARBLED in a crash at {t} — walked items {items:?} \
                 (random decryption, Fig. 4's failure)"
            );
        }
        (false, false) => println!("  plain head update : no garbling observed (lucky timing)"),
        (true, true) => panic!("CounterAtomic head: UNEXPECTED garbling — bug!"),
        (true, false) => {
            println!("  CounterAtomic head: clean in every crash state — list always walkable")
        }
    }
}

fn main() {
    println!("Fig. 4 — inserting into an encrypted persistent linked list\n");
    println!("Design: Unsafe (encryption without counter-atomicity support)");
    run(Design::UnsafeNoAtomicity, false);
    println!("\nDesign: SCA (selective counter-atomicity)");
    run(Design::Sca, false);
    run(Design::Sca, true);
    println!("\nTakeaway: each head swing needs exactly one CounterAtomic store;");
    println!("the node-creation writes never did — that asymmetry is the paper.");
}
