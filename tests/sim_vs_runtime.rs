//! Cross-validation of the discrete-event simulator against the real
//! threaded runtime: both execute the *same explicit DAG* — the simulator
//! under the flat (FIFO) plan the runtime's one scheduler amounts to — and
//! every edge is applied exactly once in each, so the
//! per-operator-class event counts of a traced real run and a traced
//! simulated run must agree exactly.

use dashmm::dag::{EdgeOp, SchedPlan};
use dashmm::expansion::{AccuracyParams, OperatorLibrary};
use dashmm::kernels::Laplace;
use dashmm::sim::{simulate, CostModel, NetworkModel, SimConfig};
use dashmm::tree::{uniform_cube, BuildParams};
use dashmm::{assemble, DashmmBuilder, Method, Problem};

fn class_counts(trace: &dashmm::runtime::TraceSet) -> [u64; EdgeOp::COUNT] {
    let mut counts = [0u64; EdgeOp::COUNT];
    for e in trace.all_events() {
        if (e.class as usize) < EdgeOp::COUNT {
            counts[e.class as usize] += 1;
        }
    }
    counts
}

#[test]
fn simulator_and_runtime_execute_identical_edge_sets() {
    let n = 3000;
    let sources = uniform_cube(n, 81);
    let targets = uniform_cube(n, 82);
    let charges = vec![1.0; n];

    // Real runtime, traced.
    let eval = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(40)
        .machine(2, 1)
        .tracing(true)
        .build(&sources, &charges, &targets);
    let real = eval.evaluate();
    let real_counts = class_counts(&real.report.trace);

    // Simulator over the very DAG the runtime executed, FIFO like it.
    let cfg = SimConfig {
        localities: 2,
        cores_per_locality: 1,
        levelwise: false,
        trace: true,
    };
    let sim = simulate(
        eval.dag(),
        &SchedPlan::flat(eval.dag()),
        &CostModel::paper_table2(),
        &NetworkModel::gemini(),
        &cfg,
    );
    let sim_counts = class_counts(&sim.trace);

    for op in EdgeOp::ALL {
        assert_eq!(
            real_counts[op.index()],
            sim_counts[op.index()],
            "event count mismatch for {}: real {} vs sim {}",
            op.name(),
            real_counts[op.index()],
            sim_counts[op.index()]
        );
    }
    // And both match the explicit DAG's edge census.
    let stats = eval.dag_stats();
    for op in EdgeOp::ALL {
        assert_eq!(
            sim_counts[op.index()],
            stats.edges[op.index()].count,
            "sim trace does not match DAG census for {}",
            op.name()
        );
    }
}

#[test]
fn simulator_work_conservation_matches_cost_model() {
    // Total traced virtual time must equal Σ (edge count × op cost).
    let n = 2000;
    let sources = uniform_cube(n, 83);
    let targets = uniform_cube(n, 84);
    let charges = vec![1.0; n];
    let problem = Problem::new(
        &sources,
        &charges,
        &targets,
        BuildParams {
            threshold: 40,
            max_level: 20,
        },
    );
    let lib = OperatorLibrary::new(
        Laplace,
        AccuracyParams::three_digit(),
        problem.tree.domain().side(),
        true,
    );
    let asm = assemble(&problem, Method::AdvancedFmm, &lib);
    let cost = CostModel::paper_table2();
    let cfg = SimConfig {
        localities: 1,
        cores_per_locality: 4,
        levelwise: false,
        trace: true,
    };
    let r = simulate(
        &asm.dag,
        &SchedPlan::flat(&asm.dag),
        &cost,
        &NetworkModel::ideal(),
        &cfg,
    );
    let traced_us: f64 = r
        .trace
        .all_events()
        .map(|e| (e.end_ns - e.start_ns) as f64 / 1000.0)
        .sum();
    let stats = dashmm::dag::DagStats::compute(&asm.dag);
    let expected: f64 = EdgeOp::ALL
        .iter()
        .map(|&op| stats.edges[op.index()].count as f64 * cost.op_us[op.index()])
        .sum();
    let rel = (traced_us - expected).abs() / expected;
    assert!(
        rel < 1e-6,
        "traced {traced_us} vs expected {expected} (rel {rel:.2e})"
    );
}
