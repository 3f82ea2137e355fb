//! End-to-end multi-process run over the real socket transport: two
//! localities as OS processes on loopback, two workers each, evaluating
//! the same Laplace problem SPMD-style.  Rank 0 gathers the partial
//! potentials and verifies the merged result against a single-process
//! evaluation to machine precision.
//!
//! This file must contain exactly ONE `#[test]`: the launcher re-executes
//! `current_exe()` — this libtest binary — once per locality, and the
//! child processes (steered by `DASHMM_NET_RANK`) must re-enter the same
//! test body and nothing else.

use std::sync::Arc;

use dashmm::kernels::Laplace;
use dashmm::tree::uniform_cube;
use dashmm::{DashmmBuilder, Method};
use dashmm_amt::codec::encode_f64s;
use dashmm_amt::{CoalesceConfig, Transport};
use dashmm_net::{bootstrap, merge_sum_f64, Role};

const LOCALITIES: u32 = 2;
const WORKERS: usize = 2;

fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = want.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

#[test]
fn two_locality_loopback_matches_single_process() {
    let transport = match bootstrap(LOCALITIES, CoalesceConfig::default()) {
        Ok(Role::Launcher(report)) => {
            // Parent process: the ranks did the work; their exit statuses
            // carry the verdict.
            for (rank, st) in &report.statuses {
                assert!(st.success(), "locality {rank} failed: {st}");
            }
            return;
        }
        Ok(Role::Rank(t)) => t,
        Err(e) => panic!("bootstrap failed: {e}"),
    };

    // Rank process (re-executed test binary).  Panics still fail the run —
    // they unwind past the exit calls below and the process dies nonzero.
    let n = 2500;
    let sources = uniform_cube(n, 91);
    let targets = uniform_cube(n, 92);
    let charges: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();

    let out = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(40)
        .machine(LOCALITIES as usize, WORKERS)
        .transport(Arc::clone(&transport) as Arc<dyn Transport>)
        .build(&sources, &charges, &targets)
        .evaluate();

    let mut part = Vec::new();
    encode_f64s(&out.potentials, &mut part);
    let parts = transport.gather(&part).expect("gather");
    let mut ok = true;
    if let Some(parts) = parts {
        // Rank 0: merge and verify.
        let merged = merge_sum_f64(&parts).expect("parts of one length");
        let reference = DashmmBuilder::new(Laplace)
            .method(Method::AdvancedFmm)
            .threshold(40)
            .machine(1, WORKERS)
            .build(&sources, &charges, &targets)
            .evaluate();
        let e = rel_err(&merged, &reference.potentials);
        ok &= e < 1e-12;
        if !ok {
            eprintln!("merged potentials diverge: rel err {e:.2e}");
        }
        // The run must actually have communicated.
        let m = transport.metrics();
        if !m.per_dest.iter().any(|d| d.parcels > 0) {
            eprintln!("no parcels crossed the transport");
            ok = false;
        }
    }
    transport.barrier().expect("final barrier");
    transport.shutdown();
    std::process::exit(if ok { 0 } else { 1 });
}
