//! Property-based tests of the AMT runtime's dataflow semantics: for an
//! arbitrary weighted DAG of summing LCOs, executing it through the
//! runtime — under any worker count or locality count — must produce
//! exactly the values of a sequential reference evaluation.

use std::sync::Arc;

use dashmm::runtime::{GlobalAddress, LcoSpec, ObsLevel, Runtime, RuntimeConfig, TaskCtx};
use proptest::prelude::*;

/// A random layered DAG: `layers` of up to `width` nodes; each non-seed
/// node sums `weight * value` over its in-edges.
#[derive(Clone, Debug)]
struct RandomDag {
    /// Per node: list of (source node, weight).
    in_edges: Vec<Vec<(usize, f64)>>,
    /// Seed values for nodes with no inputs.
    seeds: Vec<f64>,
}

impl RandomDag {
    /// Sequential reference evaluation.
    fn reference(&self) -> Vec<f64> {
        let n = self.in_edges.len();
        let mut val = vec![0.0f64; n];
        for i in 0..n {
            if self.in_edges[i].is_empty() {
                val[i] = self.seeds[i];
            } else {
                // Nodes are layered: sources always have smaller indices.
                val[i] = self.in_edges[i].iter().map(|&(s, w)| w * val[s]).sum();
            }
        }
        val
    }
}

fn random_dag() -> impl Strategy<Value = RandomDag> {
    // 2-5 layers, 1-6 nodes each, edges from the previous layers only.
    (2usize..5, 1usize..6, any::<u64>()).prop_map(|(layers, width, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut in_edges: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut layer_start = 0;
        for layer in 0..layers {
            let count = 1 + (next() as usize) % width;
            let prev_end = layer_start;
            let start = in_edges.len();
            for _ in 0..count {
                let mut edges = Vec::new();
                if layer > 0 {
                    // 1..=3 random inputs from any earlier node.
                    let k = 1 + (next() as usize) % 3;
                    for _ in 0..k {
                        let src = (next() as usize) % prev_end;
                        let w = ((next() % 9) as f64 - 4.0) / 2.0;
                        edges.push((src, w));
                    }
                }
                in_edges.push(edges);
            }
            let _ = start;
            layer_start = in_edges.len();
        }
        let seeds = (0..in_edges.len())
            .map(|i| (i as f64) * 0.5 + 1.0)
            .collect();
        RandomDag { in_edges, seeds }
    })
}

/// Execute the random DAG on the runtime and return every node's value.
fn run_on_runtime(dag: &RandomDag, localities: usize, workers: usize) -> Vec<f64> {
    let rt = Runtime::new(RuntimeConfig {
        localities,
        workers_per_locality: workers,
        obs: ObsLevel::Off,
    });
    let n = dag.in_edges.len();
    // Out-edge lists (the runtime is producer-driven, like DASHMM).
    let mut out_edges: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (dst, ins) in dag.in_edges.iter().enumerate() {
        for &(src, w) in ins {
            out_edges[src].push((dst, w));
        }
    }

    // One LCO per node, round-robin across localities, whose trigger sends
    // `weight * value` along its out-edges; a value bound for another
    // locality crosses as a parcel, exactly like the expansion DAG.  Sources
    // have smaller indices, so allocating from the last node down hands
    // every trigger its destinations' addresses.
    let mut lcos: Vec<Option<GlobalAddress>> = vec![None; n];
    for i in (0..n).rev() {
        let targets: Vec<(GlobalAddress, f64)> = out_edges[i]
            .iter()
            .map(|&(dst, w)| (lcos[dst].expect("allocated"), w))
            .collect();
        let inputs = dag.in_edges[i].len().max(1) as u32; // seeds get one set
        let forward = move |ctx: &TaskCtx, data: &Arc<[f64]>| {
            for &(dst, w) in &targets {
                ctx.lco_set(dst, &[w * data[0]]);
            }
        };
        let spec = LcoSpec::reduce_sum(1, inputs).with_trigger(Box::new(forward));
        lcos[i] = Some(rt.lco_new((i % localities) as u32, spec));
    }
    let lcos: Vec<GlobalAddress> = lcos.into_iter().map(|a| a.expect("allocated")).collect();
    // Seed values.
    for (i, ins) in dag.in_edges.iter().enumerate() {
        if ins.is_empty() {
            let lco = lcos[i];
            let v = dag.seeds[i];
            rt.seed(lco.locality, move |ctx| ctx.lco_set(lco, &[v]));
        }
    }
    rt.run();
    (0..n)
        .map(|i| rt.lco_get(lcos[i]).expect("all LCOs must trigger")[0])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runtime_matches_reference(dag in random_dag(), workers in 1usize..4) {
        let want = dag.reference();
        let got = run_on_runtime(&dag, 1, workers);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    }

    #[test]
    fn distribution_is_transparent(dag in random_dag(), localities in 2usize..5) {
        let want = dag.reference();
        let got = run_on_runtime(&dag, localities, 2);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
    }

}
