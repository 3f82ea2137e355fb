//! Property tests of the scheduling plan over arbitrary DAGs: determinism
//! of the lattice (two computes — or two SPMD ranks building the same DAG —
//! agree byte-for-byte), invariance of its classes and splits under
//! locality relabeling and redistribution, the structural invariants
//! (edge monotonicity, sink class, bounded boundary boost) the scheduler
//! relies on, and the dispatch contract all three constructors share
//! (`Urgent ∪ Bulk` partitions every out-edge list, a flat plan never
//! splits, the binary plan's urgent edges are exactly `S→M`/`M→M`).

use dashmm_dag::{
    Dag, DagBuilder, EdgeOp, EdgePart, Fire, LatticeHint, NodeClass, SchedPlan, NORMAL_CLASS,
    PRIORITY_CLASSES,
};
use proptest::prelude::*;

/// Deterministic xorshift stream for reproducible graph construction.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Build a random acyclic DAG: edges only run from lower to higher node
/// index, so any edge set is a valid topological order.  Node classes and
/// edge operators are drawn uniformly; `localities` spreads nodes across
/// that many localities (1 = everything local).
fn random_dag(seed: u64, nodes: usize, extra_edges: usize, localities: u32) -> Dag {
    let mut rng = Rng(seed | 1);
    let mut b = DagBuilder::new();
    for i in 0..nodes {
        let class = NodeClass::ALL[rng.below(NodeClass::ALL.len() as u64) as usize];
        b.add_node(
            class,
            i as u32,
            (rng.below(8)) as u8,
            100 + rng.below(4096) as u32,
        );
    }
    // A spine keeps most of the graph connected; extra edges add skips.
    for i in 1..nodes {
        if rng.below(4) != 0 {
            let src = rng.below(i as u64) as u32;
            let op = EdgeOp::ALL[rng.below(EdgeOp::COUNT as u64) as usize];
            b.add_edge(src, op, i as u32, 100, i as u32);
        }
    }
    for _ in 0..extra_edges {
        let dst = 1 + rng.below(nodes as u64 - 1);
        let src = rng.below(dst) as u32;
        let op = EdgeOp::ALL[rng.below(EdgeOp::COUNT as u64) as usize];
        b.add_edge(src, op, dst as u32, 100, dst as u32);
    }
    let mut dag = b.finish();
    for i in 0..nodes {
        dag.set_locality(i as u32, rng.below(localities as u64) as u32);
    }
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two computes over the same DAG — or over two DAGs built
    /// independently from the same inputs, as SPMD ranks do — produce
    /// identical ranks and fingerprints.
    #[test]
    fn lattice_is_deterministic(
        seed in any::<u64>(),
        nodes in 2usize..120,
        extra in 0usize..200,
        localities in 1u32..9,
    ) {
        let dag = random_dag(seed, nodes, extra, localities);
        let a = SchedPlan::lattice(&dag, &LatticeHint::uniform());
        let b = SchedPlan::lattice(&dag, &LatticeHint::uniform());
        prop_assert_eq!(a.classes(), b.classes());
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        // A second "rank" rebuilding the DAG from the same inputs agrees.
        let rebuilt = random_dag(seed, nodes, extra, localities);
        let c = SchedPlan::lattice(&rebuilt, &LatticeHint::uniform());
        prop_assert_eq!(a.fingerprint(), c.fingerprint());
        prop_assert_eq!(a.histogram().iter().sum::<usize>(), nodes);
    }

    /// Relabeling locality ids with any bijection leaves every rank
    /// unchanged: only locality *equality* along an edge matters.
    #[test]
    fn locality_relabeling_preserves_ranks(
        seed in any::<u64>(),
        nodes in 2usize..100,
        extra in 0usize..150,
        localities in 1u32..8,
        offset in 1u32..1000,
    ) {
        let dag = random_dag(seed, nodes, extra, localities);
        let base = SchedPlan::lattice(&dag, &LatticeHint::uniform());
        let mut relabeled = random_dag(seed, nodes, extra, localities);
        for i in 0..nodes {
            // A bijection on ids (shift): preserves equality classes.
            let loc = dag.nodes()[i].locality;
            relabeled.set_locality(i as u32, loc + offset);
        }
        let shifted = SchedPlan::lattice(&relabeled, &LatticeHint::uniform());
        prop_assert_eq!(base.classes(), shifted.classes());
        prop_assert_eq!(base.fingerprint(), shifted.fingerprint());
        for i in 0..nodes as u32 {
            prop_assert_eq!(base.on_fire(i), shifted.on_fire(i));
        }
    }

    /// Redistributing a DAG across any locality count only applies the
    /// bounded boundary boost: each node's class equals its single-locality
    /// class, or is exactly one class more urgent — and nodes with no
    /// remote out-edge keep their single-locality class exactly.
    #[test]
    fn rank_invariant_across_locality_counts(
        seed in any::<u64>(),
        nodes in 2usize..100,
        extra in 0usize..150,
        localities in 2u32..16,
    ) {
        let local = random_dag(seed, nodes, extra, 1);
        let spread = random_dag(seed, nodes, extra, localities);
        let base = SchedPlan::lattice(&local, &LatticeHint::uniform());
        let dist = SchedPlan::lattice(&spread, &LatticeHint::uniform());
        for i in 0..nodes as u32 {
            let nd = &spread.nodes()[i as usize];
            let boundary = spread
                .out_edges(i)
                .iter()
                .any(|e| spread.nodes()[e.dst as usize].locality != nd.locality);
            let expect = if boundary {
                base.class(i).saturating_sub(1)
            } else {
                base.class(i)
            };
            prop_assert_eq!(dist.class(i), expect);
        }
    }

    /// With uniform weights and everything local, urgency is monotone
    /// along every edge (a producer is never less urgent than its
    /// consumer) and every sink sits in the least urgent class.
    #[test]
    fn uniform_local_lattice_is_edge_monotone(
        seed in any::<u64>(),
        nodes in 2usize..120,
        extra in 0usize..200,
    ) {
        let dag = random_dag(seed, nodes, extra, 1);
        let lat = SchedPlan::lattice(&dag, &LatticeHint::uniform());
        for src in 0..nodes as u32 {
            for e in dag.out_edges(src) {
                prop_assert!(lat.class(src) <= lat.class(e.dst));
            }
        }
        for (i, nd) in dag.nodes().iter().enumerate() {
            if nd.out_degree == 0 {
                prop_assert_eq!(lat.class(i as u32) as usize, PRIORITY_CLASSES - 1);
            }
        }
    }

    /// The dispatch contract every plan honours: `Urgent` and `Bulk`
    /// partition each out-edge list, a node splits iff both parts are
    /// non-empty, its urgent task keeps the node's own class, and its bulk
    /// task is no more urgent than `NORMAL_CLASS`.
    #[test]
    fn urgent_and_bulk_partition_every_out_edge_list(
        seed in any::<u64>(),
        nodes in 2usize..100,
        extra in 0usize..150,
        localities in 1u32..6,
    ) {
        let dag = random_dag(seed, nodes, extra, localities);
        for plan in [
            SchedPlan::flat(&dag),
            SchedPlan::binary(&dag),
            SchedPlan::lattice(&dag, &LatticeHint::uniform()),
        ] {
            for id in 0..nodes as u32 {
                let (mut urgent, mut bulk) = (0usize, 0usize);
                for e in dag.out_edges(id) {
                    prop_assert!(plan.selects(EdgePart::All, e));
                    let (u, b) = (plan.selects(EdgePart::Urgent, e), plan.selects(EdgePart::Bulk, e));
                    prop_assert!(u != b, "edge in both or neither part");
                    prop_assert_eq!(u, plan.class(e.dst) < NORMAL_CLASS);
                    urgent += u as usize;
                    bulk += b as usize;
                }
                match plan.on_fire(id) {
                    Fire::One { class } => {
                        prop_assert!(urgent == 0 || bulk == 0);
                        prop_assert_eq!(class, plan.class(id));
                    }
                    Fire::Split { urgent_class, bulk_class } => {
                        prop_assert!(urgent > 0 && bulk > 0);
                        prop_assert_eq!(urgent_class, plan.class(id));
                        prop_assert!(bulk_class >= NORMAL_CLASS);
                        prop_assert!((bulk_class as usize) < PRIORITY_CLASSES);
                    }
                }
            }
        }
    }

    /// A flat plan emits one class of work: no node splits, nothing is
    /// urgent, every bundle is `Normal`.
    #[test]
    fn flat_plan_never_splits(
        seed in any::<u64>(),
        nodes in 2usize..100,
        extra in 0usize..150,
        localities in 1u32..6,
    ) {
        let dag = random_dag(seed, nodes, extra, localities);
        let plan = SchedPlan::flat(&dag);
        prop_assert!(plan.is_flat());
        for id in 0..nodes as u32 {
            prop_assert_eq!(plan.on_fire(id), Fire::One { class: NORMAL_CLASS });
        }
        let all: Vec<u32> = (0..dag.num_edges() as u32).collect();
        prop_assert_eq!(plan.bundle_class(&dag, &all), NORMAL_CLASS);
    }

    /// Over a well-formed FMM DAG — where only `S→M`/`M→M` edges enter `M`
    /// nodes — the binary plan's urgent edge set is exactly those edges.
    #[test]
    fn binary_urgent_set_is_the_up_sweep(
        seed in any::<u64>(),
        nodes in 2usize..100,
        extra in 0usize..150,
    ) {
        // Retype the random graph's edges by destination so it is
        // well-formed in that sense: edges into `M` become `S→M`/`M→M`,
        // all others `M→L`; `S` nodes with inputs are retyped `L`.
        let raw = random_dag(seed, nodes, extra, 1);
        let mut b = DagBuilder::new();
        for nd in raw.nodes() {
            let class = if nd.class == NodeClass::S && nd.in_degree > 0 {
                NodeClass::L
            } else {
                nd.class
            };
            b.add_node(class, nd.box_id, nd.level, nd.size_bytes);
        }
        for src in 0..nodes as u32 {
            for e in raw.out_edges(src) {
                let op = match (raw.node(e.dst).class == NodeClass::M, src % 2) {
                    (true, 0) => EdgeOp::S2M,
                    (true, _) => EdgeOp::M2M,
                    (false, _) => EdgeOp::M2L,
                };
                b.add_edge(src, op, e.dst, e.bytes, e.tag);
            }
        }
        let dag = b.finish();
        let plan = SchedPlan::binary(&dag);
        for src in 0..nodes as u32 {
            for e in dag.out_edges(src) {
                prop_assert_eq!(
                    plan.selects(EdgePart::Urgent, e),
                    matches!(e.op, EdgeOp::S2M | EdgeOp::M2M)
                );
            }
        }
    }
}
