//! End-to-end locality-failure recovery over real sockets: three ranks
//! evaluate the cube/Laplace workload over a loopback TCP mesh, rank 2 is
//! severed mid-run (the process-death model), and the survivors must fence
//! it, re-own its DAG slice, replay the orphaned work, and produce the
//! *complete* answer — within 1e-12 of the fault-free single-process
//! reference.  Exactly-once delivery is enforced by the runtime itself:
//! an over-subscribed LCO panics the rank thread, which fails the join.
//!
//! Two sever points: early, as soon as the victim is sending, and late,
//! once it has shipped most of its bundles — by then the survivors' `It`
//! gates have fired, so the replay re-gathers them.
//!
//! Each survivor evaluates three times on the same `Evaluation`: the
//! first recovers, and the later ones re-arm the network on the ownership
//! recovery left, with nothing to recover and the same answer.

use std::collections::BTreeSet;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dashmm_amt::{CoalesceConfig, Transport};
use dashmm_core::{DashmmBuilder, EvalOutput, Method};
use dashmm_dag::{EdgeOp, NodeClass};
use dashmm_kernels::Laplace;
use dashmm_net::{CommMetrics, RetransmitConfig, SocketTransport};
use dashmm_tree::uniform_cube;

const RANKS: u32 = 3;
const DEAD: u32 = 2;
const N: usize = 2_500;
const THRESHOLD: usize = 20;
const WORKERS: usize = 2;
/// Evaluations per survivor on one `Evaluation`.
const EVALS: usize = 3;

fn socket_pair() -> (TcpStream, TcpStream) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let a = TcpStream::connect(addr).unwrap();
    let (b, _) = l.accept().unwrap();
    (a, b)
}

/// Fully-connected loopback mesh of `RANKS` transports, recovery armed.
fn mesh() -> Vec<Arc<SocketTransport>> {
    let mut peers: Vec<Vec<Option<TcpStream>>> = (0..RANKS)
        .map(|_| (0..RANKS).map(|_| None).collect())
        .collect();
    for lo in 0..RANKS {
        for hi in lo + 1..RANKS {
            let (a, b) = socket_pair();
            peers[lo as usize][hi as usize] = Some(a);
            peers[hi as usize][lo as usize] = Some(b);
        }
    }
    peers
        .into_iter()
        .enumerate()
        .map(|(rank, p)| {
            let t = Arc::new(SocketTransport::with_options(
                rank as u32,
                RANKS,
                p,
                CoalesceConfig::default(),
                Duration::from_secs(60),
                None,
                RetransmitConfig::default(),
                Duration::from_secs(5),
            ));
            t.set_recover(true);
            t
        })
        .collect()
}

/// `evals` evaluations on one `Evaluation` of this rank.
fn rank_eval(
    transport: Arc<SocketTransport>,
    evals: usize,
    sources: &[dashmm_tree::Point3],
    charges: &[f64],
    targets: &[dashmm_tree::Point3],
) -> Vec<EvalOutput> {
    let eval = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(THRESHOLD)
        .machine(RANKS as usize, WORKERS)
        .transport(Arc::clone(&transport) as Arc<dyn Transport>)
        .recover(true)
        .build(sources, charges, targets);
    let outs = (0..evals).map(|_| eval.evaluate()).collect();
    transport.shutdown();
    outs
}

/// The cases share the host's cores: one mesh at a time keeps each sever
/// point where its case puts it.
static ONE_MESH: Mutex<()> = Mutex::new(());

#[test]
fn severed_rank_is_recovered_by_survivors() {
    recovered_after_sever(|m, _| m.frames_sent() > 5);
}

#[test]
fn severed_late_rank_is_recovered_by_survivors() {
    recovered_after_sever(|m, bundles| m.parcels_sent() >= bundles * 3 / 4);
}

/// Run the mesh and sever the victim once `sever_at(counters, bundles)`
/// holds for its transport's counters, `bundles` being how many bundles it
/// sends in a fault-free run: one per (node, remote locality) pair.
fn recovered_after_sever(sever_at: fn(&CommMetrics, u64) -> bool) {
    let _one = ONE_MESH.lock().unwrap_or_else(|e| e.into_inner());
    // Watchdog: a wedged recovery must fail loudly, never hang the suite.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(180));
        eprintln!("recovery_socket: 180s budget exceeded, aborting");
        std::process::abort();
    });
    let sources = uniform_cube(N, 11);
    let targets = uniform_cube(N, 12);
    let charges = vec![1.0; N];

    let shape = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(THRESHOLD)
        .machine(RANKS as usize, WORKERS)
        .build(&sources, &charges, &targets);
    let dag = shape.dag();
    let bundles: u64 = (0..dag.num_nodes() as u32)
        .filter(|&id| dag.node(id).locality == DEAD)
        .map(|id| {
            let remote = dag.out_edges(id).iter().map(|e| dag.node(e.dst).locality);
            remote.filter(|&l| l != DEAD).collect::<BTreeSet<_>>().len() as u64
        })
        .sum();
    // A merge shift into a parent on another rank is bundled, not applied
    // by its member's `M→I` flush, and re-owning either end re-decides
    // which windows the member stores: without one, neither path runs.
    let cross_merges = (0..dag.num_nodes() as u32)
        .flat_map(|id| dag.out_edges(id).iter().map(move |e| (id, e)))
        .filter(|(id, e)| {
            let (src, dst) = (dag.node(*id), dag.node(e.dst));
            e.op == EdgeOp::I2I && dst.class == NodeClass::Is && src.locality != dst.locality
        })
        .count();
    assert!(cross_merges > 0, "no merge shift crosses ranks");

    let transports = mesh();
    let victim = Arc::clone(&transports[DEAD as usize]);
    // Process-death model: once the victim's run is demonstrably underway
    // (parcels on the wire), sever it from the mesh without a goodbye —
    // peers observe the hangup exactly as a crash.
    let killer = std::thread::spawn({
        let victim = Arc::clone(&victim);
        move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !sever_at(&victim.metrics(), bundles) {
                assert!(
                    Instant::now() < deadline,
                    "victim never reached the sever point"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            victim.sever();
        }
    });

    let ranks: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let (s, c, g) = (sources.clone(), charges.clone(), targets.clone());
            let evals = if rank as u32 == DEAD { 1 } else { EVALS };
            std::thread::spawn(move || rank_eval(t, evals, &s, &c, &g))
        })
        .collect();
    // A panicking rank thread (e.g. an over-subscribed LCO — an
    // exactly-once violation) fails the join here.
    let runs: Vec<Vec<EvalOutput>> = ranks.into_iter().map(|h| h.join().unwrap()).collect();
    killer.join().unwrap();
    let outs: Vec<&EvalOutput> = runs.iter().map(|r| &r[0]).collect();

    // Both survivors convicted rank 2 and recovered instead of aborting.
    let mut reowned = Vec::new();
    for (rank, out) in outs.iter().enumerate().take(DEAD as usize) {
        let failure = out
            .report
            .lost_peer
            .unwrap_or_else(|| panic!("rank {rank} never convicted the severed peer"));
        assert_eq!(failure.rank, DEAD);
        assert!(out.report.fenced, "rank {rank} did not fence the dead peer");
        let info = out
            .recovery
            .unwrap_or_else(|| panic!("rank {rank} did not recover"));
        assert!(
            info.stats.reowned_nodes > 0,
            "rank {rank}: the dead rank owned DAG nodes, none were re-owned"
        );
        reowned.push(info.stats.reowned_nodes);
    }
    // Re-ownership is a pure function of the DAG and the dead rank, so
    // every survivor must have derived the identical re-owned set.
    assert_eq!(
        reowned[0], reowned[1],
        "survivors disagree on the re-owned set"
    );

    // The recovered answer: survivors' partial potentials sum to the
    // fault-free single-process reference to machine precision.
    let reference = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(THRESHOLD)
        .machine(1, WORKERS)
        .build(&sources, &charges, &targets)
        .evaluate();
    let rel_err = |call: usize| {
        let merged = (0..N).map(|i| runs[0][call].potentials[i] + runs[1][call].potentials[i]);
        let num: f64 = merged
            .zip(&reference.potentials)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f64 = reference.potentials.iter().map(|b| b * b).sum();
        (num / den).sqrt()
    };
    let rel = rel_err(0);
    assert!(
        rel < 1e-12,
        "recovered potentials diverge from the fault-free reference: rel err {rel:.2e}"
    );

    // The later evaluations re-arm the network on the survivors: nothing
    // is lost or recovered again, and the answer stays the reference's.
    for call in 1..EVALS {
        for (rank, run) in runs.iter().enumerate().take(DEAD as usize) {
            let out = &run[call];
            assert!(
                out.recovery.is_none(),
                "rank {rank}, evaluation {}: recovered again",
                call + 1
            );
            assert!(
                out.report.lost_peer.is_none(),
                "rank {rank}, evaluation {}: reports a lost peer",
                call + 1
            );
        }
        let rel = rel_err(call);
        assert!(
            rel < 1e-12,
            "evaluation {} after the recovery diverges from the reference: rel err {rel:.2e}",
            call + 1
        );
    }
}
