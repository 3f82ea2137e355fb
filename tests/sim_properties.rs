//! Property-based tests of the discrete-event simulator: classic
//! list-scheduling bounds and determinism, over random DAGs.

use dashmm::dag::{Dag, DagBuilder, EdgeOp, LatticeHint, NodeClass, SchedPlan};
use dashmm::sim::{simulate, CoalesceConfig, CostModel, NetworkModel, SimConfig, SimResult};
use proptest::prelude::*;

/// Random layered DAG with unit-ish costs, everything on locality 0.
fn random_dag() -> impl Strategy<Value = Dag> {
    (2usize..6, 1usize..8, any::<u64>()).prop_map(|(layers, width, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = DagBuilder::new();
        let mut prev: Vec<u32> = Vec::new();
        let mut all: Vec<u32> = Vec::new();
        for layer in 0..layers {
            let count = 1 + (next() as usize) % width;
            let mut cur = Vec::new();
            for _ in 0..count {
                let class = if layer == 0 {
                    NodeClass::S
                } else {
                    NodeClass::M
                };
                let id = b.add_node(class, all.len() as u32, layer as u8, 64);
                if layer > 0 {
                    let k = 1 + (next() as usize) % 2.min(prev.len());
                    for j in 0..k {
                        let src = prev[(next() as usize + j) % prev.len()];
                        b.add_edge(src, EdgeOp::M2M, id, 64, 0);
                    }
                }
                cur.push(id);
                all.push(id);
            }
            prev = cur;
        }
        b.finish()
    })
}

fn unit_cost() -> CostModel {
    CostModel::measured([10.0; 11], 0.0)
}

fn cfg(cores: usize) -> SimConfig {
    SimConfig {
        localities: 1,
        cores_per_locality: cores,
        trace: false,
        levelwise: false,
    }
}

/// Simulate under the flat (priority-oblivious) plan.
fn sim(dag: &Dag, cost: &CostModel, net: &NetworkModel, cfg: &SimConfig) -> SimResult {
    simulate(dag, &SchedPlan::flat(dag), cost, net, cfg)
}

/// Total edge work in µs.
fn total_work(dag: &Dag) -> f64 {
    dag.num_edges() as f64 * 10.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_at_least_both_lower_bounds(dag in random_dag(), cores in 1usize..9) {
        let r = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
        // Work bound.
        let work = total_work(&dag);
        prop_assert!(r.makespan_us + 1e-9 >= work / cores as f64,
            "makespan {} below work bound {}", r.makespan_us, work / cores as f64);
        // Critical-path bound: every path's edges execute sequentially
        // (a node's out-edges are processed one after another, so the path
        // bound uses edge costs).
        let cp = dag.critical_path_len() as f64 * 10.0;
        prop_assert!(r.makespan_us + 1e-9 >= cp,
            "makespan {} below critical path bound {cp}", r.makespan_us);
    }

    #[test]
    fn single_core_equals_total_work(dag in random_dag()) {
        let r = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(1));
        // One core, no overheads: the schedule is a permutation of all
        // edge work.
        prop_assert!((r.makespan_us - total_work(&dag)).abs() < 1e-6);
    }

    #[test]
    fn simulation_is_deterministic(dag in random_dag(), cores in 1usize..6) {
        let a = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
        let b = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
        prop_assert_eq!(a.makespan_us, b.makespan_us);
        prop_assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn more_cores_never_hurt_much(dag in random_dag()) {
        // List scheduling can exhibit Graham anomalies, but they are
        // bounded: T_m ≤ 2·T_{m'} for m ≥ m'.
        let t2 = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(2)).makespan_us;
        let t8 = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(8)).makespan_us;
        prop_assert!(t8 <= t2 * 2.0 + 1e-9);
    }

    #[test]
    fn busy_time_equals_work_on_ideal_network(dag in random_dag(), cores in 1usize..5) {
        let r = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
        let busy: f64 = r.busy_us.iter().sum();
        prop_assert!((busy - total_work(&dag)).abs() < 1e-6,
            "busy {} vs work {}", busy, total_work(&dag));
    }

    #[test]
    fn binary_and_lattice_plans_preserve_edge_work(dag in random_dag(), cores in 1usize..5) {
        let base = sim(&dag, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
        let b: f64 = base.busy_us.iter().sum();
        for plan in [
            SchedPlan::binary(&dag),
            SchedPlan::lattice(&dag, &LatticeHint::uniform()),
        ] {
            let prio = simulate(&dag, &plan, &unit_cost(), &NetworkModel::ideal(), &cfg(cores));
            // Priority splitting may add tasks but never loses edge work.
            let p: f64 = prio.busy_us.iter().sum();
            prop_assert!((b - p).abs() < 1e-6);
        }
    }
}

#[test]
fn remote_latency_adds_to_chain() {
    // Deterministic check that the network actually delays dependencies.
    let mut b = DagBuilder::new();
    let s = b.add_node(NodeClass::S, 0, 0, 64);
    let m = b.add_node(NodeClass::M, 1, 1, 64);
    let t = b.add_node(NodeClass::T, 2, 2, 64);
    b.add_edge(s, EdgeOp::S2M, m, 64, 0);
    b.add_edge(m, EdgeOp::M2L, t, 64, 0);
    let mut dag = b.finish();
    dag.set_locality(1, 1);
    dag.set_locality(2, 0);
    let net = NetworkModel {
        latency_us: 100.0,
        bytes_per_us: f64::INFINITY,
        send_overhead_us: 0.0,
        remote_edge_overhead_us: 0.0,
        coalesce: CoalesceConfig::default(),
        ..NetworkModel::ideal()
    };
    let two = SimConfig {
        localities: 2,
        cores_per_locality: 1,
        trace: false,
        levelwise: false,
    };
    let r = sim(&dag, &unit_cost(), &net, &two);
    // Two hops of 100 µs latency plus 2×10 µs of edge work.
    assert!(
        (r.makespan_us - 220.0).abs() < 1e-6,
        "makespan {}",
        r.makespan_us
    );
    assert_eq!(r.messages, 2);
}
