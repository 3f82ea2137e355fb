//! **Table I** — count, size and min/max in-/out-degree of DAG nodes.
//!
//! Paper workload: 30 M sources and targets, uniform cube, Laplace kernel,
//! threshold 60, 3 digits.  Default here: 200 k points (node counts scale
//! ~linearly with N at fixed threshold; class ratios, degree ranges and the
//! size structure are what the table is about).
//!
//! Run: `cargo run --release -p dashmm-bench --bin table1 [--n N] [--dist cube|sphere]`

use std::collections::BTreeSet;

use dashmm_bench::{banner, socket, Opts};
use dashmm_core::assemble::unpack_i2i;
use dashmm_core::{DashmmBuilder, Evaluation};
use dashmm_dag::{DagStats, NodeClass};
use dashmm_kernels::{Kernel, KernelKind, Laplace, Yukawa};

/// Localities the DAG is distributed over.
const LOCALITIES: usize = 4;

/// Points (sources + targets) of the paper's Table I workload.
const PAPER_POINTS: f64 = 60e6;

/// Paper Table I, for reference printing.
const PAPER: [(&str, u64, &str, u32, u32, u32, u32); 6] = [
    ("S", 2_097_148, "32-1920", 0, 0, 9, 28),
    ("M", 2_396_732, "880", 1, 8, 1, 2),
    ("Is", 2_396_732, "5472", 1, 1, 7, 26),
    ("It", 2_396_672, "25536", 56, 208, 1, 8),
    ("L", 2_396_672, "880", 1, 2, 1, 8),
    ("T", 2_097_152, "40-2400", 9, 28, 0, 0),
];

fn main() {
    let opts = Opts::parse();
    // `--transport socket`: measure the real communication footprint of
    // this DAG's distribution (per-destination parcels/bytes) with one
    // process per locality before printing the node table.
    if socket::maybe_run("table1", &opts, false) {
        return;
    }
    banner(
        "Table I — DAG node classes (count, size, degrees)",
        &format!(
            "workload: {:?} {:?} n={} threshold={}",
            opts.dist, opts.kernel, opts.n, opts.threshold
        ),
    );
    let rule_holds = match opts.kernel {
        KernelKind::Laplace => table(&opts, Laplace),
        KernelKind::Yukawa(lam) => table(&opts, Yukawa::new(lam)),
    };
    if !rule_holds {
        std::process::exit(1);
    }
}

/// Print the table for `kernel`'s evaluation; whether its resident `Is`
/// payload is what the stored-window rule says.
fn table<K: Kernel>(opts: &Opts, kernel: K) -> bool {
    let (sources, targets, charges) = opts.ensembles();
    let eval = DashmmBuilder::new(kernel)
        .threshold(opts.threshold)
        .machine(LOCALITIES, 1)
        .build(&sources, &charges, &targets);
    eval.dag().validate().expect("assembled DAG must validate");
    let depth = eval.problem().tree.source().depth();
    if depth < 3 {
        eprintln!(
            "note: n={} at threshold {} yields a tree of depth {depth} — too shallow for \
             representative L2 structure; the shape checks below assume a deeper tree \
             (use --n 100000 or more)",
            opts.n, opts.threshold,
        );
    }
    let stats = DagStats::compute(eval.dag());

    println!("\n--- this implementation ---");
    print!("{}", stats.node_table());
    println!(
        "total nodes: {}   total edges: {}   critical path: {} edges",
        stats.total_nodes, stats.total_edges, stats.critical_path
    );

    println!("\n--- paper (30 M points, cube, for shape comparison) ---");
    println!("Type        Count     Size [B]        din min/max    dout min/max");
    for (name, count, size, dn, dx, on, ox) in PAPER {
        println!("{name:<6} {count:>10}  {size:>14}  {dn:>7}/{dx:<7}  {on:>7}/{ox:<7}");
    }

    // Σ node bytes per class, by owner: each node's size is the message it
    // sends along an out-edge.  The paper prints one size for M / Is / It /
    // L, so its column is count × size; its S and T sizes are ranges and
    // stay blank.
    println!("\n--- bytes by owner (Σ node message size per class) ---");
    println!("Type     this run [MB]   B/point     paper [MB]   B/point");
    let points = 2.0 * opts.n as f64;
    let (mut ours, mut paper) = (0u64, 0u64);
    for (c, (name, count, size, ..)) in NodeClass::ALL.into_iter().zip(PAPER) {
        let total = stats.nodes[c.index()].size_total;
        ours += total;
        let theirs = size.parse::<u64>().ok().map(|size| count * size);
        paper += theirs.unwrap_or(0);
        let (mb, per_point) = theirs.map_or(("-".to_string(), "-".to_string()), |b| {
            (
                format!("{:.1}", b as f64 / 1e6),
                format!("{:.1}", b as f64 / PAPER_POINTS),
            )
        });
        println!(
            "{name:<6} {:>15.1} {:>9.1} {mb:>14} {per_point:>9}",
            total as f64 / 1e6,
            total as f64 / points
        );
    }
    println!(
        "total  {:>15.1} {:>9.1} {:>14.1} {:>9.1}   (paper: M + Is + It + L only)",
        ours as f64 / 1e6,
        ours as f64 / points,
        paper as f64 / 1e6,
        paper as f64 / PAPER_POINTS
    );
    // What a run keeps, read off the built LCO network: an `It` is a gate
    // that gathers its in-edges into a buffer it hands on, an `Is` stores
    // the own windows read after its `M→I` flush, the particles of `S` live
    // in the tree, and a `T` holds one potential per target.
    let held = eval.resident_payload();
    let resident: u64 = held.iter().sum();
    let held_is = held[NodeClass::Is.index()];
    println!(
        "resident {:>13.1} {:>9.1}   (held at run time: It 0, Is {:.1} of {:.1})",
        resident as f64 / 1e6,
        resident as f64 / points,
        held_is as f64 / 1e6,
        stats.nodes[NodeClass::Is.index()].size_total as f64 / 1e6,
    );

    // Shape checks the reproduction should satisfy.
    println!("\n--- shape checks ---");
    let g = |c: NodeClass| stats.nodes[c.index()];
    let m = g(NodeClass::M);
    let is = g(NodeClass::Is);
    let it = g(NodeClass::It);
    let s = g(NodeClass::S);
    let t = g(NodeClass::T);
    let l = g(NodeClass::L);
    check("the six classes have similar counts (within ~2x)", {
        let counts = [s.count, m.count, is.count, it.count, l.count, t.count];
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        max / min < 3.0
    });
    check(
        "S sizes span 32 B to 60 points (paper: 32-1920)",
        s.size_min >= 32 && s.size_max <= 32 * 60,
    );
    // The paper: "The intermediate nodes stand out both in message size and
    // connectivity".  In this realisation the merged slots live on Is (the
    // paper's layout concentrates them on It), so the standout class is an
    // intermediate one either way.
    check(
        "intermediate nodes (Is/It) have the largest payloads",
        is.size_max.max(it.size_max) > m.size_max && is.size_max.max(it.size_max) > s.size_max,
    );
    check(
        "intermediate nodes have the largest connectivity",
        is.din_max.max(it.din_max) > l.din_max && is.dout_max.max(it.dout_max) > m.dout_max,
    );
    check("M out-degree small (M2M + M2I)", m.dout_max <= 3);
    check("T nodes are sinks", t.dout_max == 0);
    check("S nodes are sources", s.din_max == 0);
    let rule = stored_window_bytes(&eval);
    let holds = held_is == rule;
    check(
        &format!(
            "resident Is is the stored-window rule's ({:.1} MB held, {:.1} MB by the rule)",
            held_is as f64 / 1e6,
            rule as f64 / 1e6
        ),
        holds,
    );
    holds
}

/// The `Is` bytes the stored-window rule keeps, from the DAG and its
/// localities alone: per `Is`, the distinct own windows a translation into
/// an `It` or a merge shift into another locality's `Is` reads, plus every
/// merged slot.
fn stored_window_bytes<K: Kernel>(eval: &Evaluation<K>) -> u64 {
    let (dag, asm) = (eval.dag(), eval.assembly());
    let mut bytes = 0;
    for id in 0..dag.num_nodes() as u32 {
        let node = dag.node(id);
        if node.class != NodeClass::Is {
            continue;
        }
        let read: BTreeSet<usize> = dag
            .out_edges(id)
            .iter()
            .filter(|e| {
                let dst = dag.node(e.dst);
                let (_, src_slot, _) = unpack_i2i(e.tag);
                src_slot == 0 && (dst.class == NodeClass::It || dst.locality != node.locality)
            })
            .map(|e| unpack_i2i(e.tag).0)
            .collect();
        let l = asm.is_layout[id as usize];
        bytes += 8 * (read.len() as u64 * l.own_w as u64 + (l.n_merged * l.merged_w) as u64);
    }
    bytes
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}
