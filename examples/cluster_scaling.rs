//! A miniature strong-scaling study on the discrete-event cluster
//! simulator — the workflow behind Figure 3, as a library user would
//! script it.
//!
//! Builds the explicit DAG once, redistributes it over 1…64 localities with
//! the paper's FMM policy, and replays it through the virtual 32-core-per-
//! locality machine with a Gemini-like interconnect and the paper's
//! Table II operator costs.
//!
//! Run: `cargo run --release --example cluster_scaling`

use dashmm::dag::{DistributionPolicy, FmmPolicy, NodeClass, SchedPlan};
use dashmm::expansion::{AccuracyParams, OperatorLibrary};
use dashmm::kernels::Laplace;
use dashmm::sim::{simulate, CostModel, NetworkModel, SimConfig};
use dashmm::tree::{uniform_cube, BuildParams};
use dashmm::{assemble, block_owner, Method, Problem};

fn main() {
    let n = 60_000;
    let sources = uniform_cube(n, 5);
    let targets = uniform_cube(n, 6);
    let charges = vec![1.0; n];

    let problem = Problem::new(&sources, &charges, &targets, BuildParams::default());
    let lib = OperatorLibrary::new(
        Laplace,
        AccuracyParams::three_digit(),
        problem.tree.domain().side(),
        true,
    );
    let mut asm = assemble(&problem, Method::AdvancedFmm, &lib);
    println!(
        "DAG: {} nodes, {} edges, critical path {} edges",
        asm.dag.num_nodes(),
        asm.dag.num_edges(),
        asm.dag.critical_path_len()
    );

    let cost = CostModel::paper_table2();
    let net = NetworkModel::gemini();
    println!(
        "\n{:>6} {:>12} {:>9} {:>11} {:>10} {:>12}",
        "cores", "t_n [ms]", "speedup", "efficiency", "messages", "remote MB"
    );
    let mut t32 = 0.0;
    for localities in [1usize, 2, 4, 8, 16, 32, 64] {
        // Redistribute for this machine size.
        let src_n = problem.tree.source().points().len();
        let tgt_n = problem.tree.target().points().len();
        let owner = |class: NodeClass, box_id: u32| -> u32 {
            match class {
                NodeClass::S | NodeClass::M | NodeClass::Is => block_owner(
                    problem.tree.source().node(box_id).first,
                    src_n,
                    localities as u32,
                ),
                _ => block_owner(
                    problem.tree.target().node(box_id).first,
                    tgt_n,
                    localities as u32,
                ),
            }
        };
        FmmPolicy::default().assign(&mut asm.dag, localities as u32, &owner);

        let cfg = SimConfig {
            localities,
            cores_per_locality: 32,
            trace: false,
            levelwise: false,
        };
        let r = simulate(&asm.dag, &SchedPlan::flat(&asm.dag), &cost, &net, &cfg);
        if localities == 1 {
            t32 = r.makespan_us;
        }
        let speedup = t32 / r.makespan_us;
        println!(
            "{:>6} {:>12.2} {:>9.2} {:>10.1}% {:>10} {:>12.2}",
            localities * 32,
            r.makespan_us / 1e3,
            speedup,
            100.0 * speedup / localities as f64,
            r.messages,
            r.bytes as f64 / 1e6
        );
    }
    println!(
        "\nnear-ideal scaling until the DAG runs out of concurrent tasks — Figure 3 in miniature."
    );
}
