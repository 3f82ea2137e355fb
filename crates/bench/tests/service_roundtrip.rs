//! Integration tests of the evaluation service against the real resident
//! FMM engine: concurrent clients with interleaved batches must each
//! receive exactly what a direct single-shot evaluation of their own
//! batch produces, requests queued behind a busy worker must leave as
//! fused tiles, and a client that vanishes mid-batch must leave the
//! server's reset path usable (the bounded queues drain, nothing leaks).

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dashmm_bench::service::ServiceWorkload;
use dashmm_core::ResidentFmm;
use dashmm_kernels::Laplace;
use dashmm_net::service::{
    encode_request, AdmissionConfig, EvalClient, EvalEngine, EvalServer, RespStatus, ServiceConfig,
};
use dashmm_net::wire::{encode_frame, FrameKind};

struct Resident(Arc<ResidentFmm<Laplace>>);

impl EvalEngine for Resident {
    fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
        self.0.evaluate(targets, out)
    }
}

fn small_workload() -> ServiceWorkload {
    ServiceWorkload {
        points: 3000,
        seed: 17,
        ..ServiceWorkload::default()
    }
}

/// Two clients, interleaved ragged batches, small tile budget so their
/// requests may fuse whenever they overlap; every response must match the
/// client's own single-shot evaluation to 1e-12.  (Whether two closed-loop
/// clients overlap is up to the OS scheduler — the fusion claim itself is
/// `requests_queued_behind_a_busy_worker_fuse`, which controls arrival.)
#[test]
fn concurrent_clients_match_single_shot() {
    let workload = small_workload();
    let fmm = Arc::new(workload.build_engine());
    let cfg = ServiceConfig {
        tile_targets: 64, // small enough for cross-client fusion
        eval_workers: 2,
        ..ServiceConfig::default()
    };
    let mut server =
        EvalServer::bind("127.0.0.1:0", Arc::new(Resident(Arc::clone(&fmm))), cfg).expect("bind");
    let addr = format!("127.0.0.1:{}", server.port());

    std::thread::scope(|scope| {
        for client_id in 0u32..2 {
            let fmm = Arc::clone(&fmm);
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = EvalClient::connect(&addr).expect("connect");
                // Ragged sizes so segment offsets within fused tiles vary.
                for (req, &batch) in [5usize, 33, 1, 17, 64, 9, 48, 2, 31, 12].iter().enumerate() {
                    let targets = workload.request_targets(client_id, req as u32, batch);
                    let resp = client.eval(client_id, &targets).expect("rpc");
                    assert_eq!(resp.status, RespStatus::Ok, "client {client_id} req {req}");
                    assert_eq!(resp.potentials.len(), batch);
                    let mut want = vec![0.0; batch];
                    fmm.evaluate(&targets, &mut want);
                    for (k, (&got, &want)) in resp.potentials.iter().zip(&want).enumerate() {
                        let err = (got - want).abs() / want.abs().max(1.0);
                        assert!(
                            err <= 1e-12,
                            "client {client_id} req {req} target {k}: \
                             got {got}, want {want} (rel err {err:.3e})"
                        );
                    }
                }
                client.close().expect("close");
            });
        }
    });

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.completed_requests, 20);
    assert!(stats.accounting.balanced(), "{:?}", stats.accounting);
    server.reset();
}

/// Fusion with the arrival order under control: a gated engine holds the
/// single eval worker inside the first tile until every request has been
/// admitted, so the rest are all queued when it frees up and must leave as
/// full fused tiles — and every response still carries its own answers.
#[test]
fn requests_queued_behind_a_busy_worker_fuse() {
    const REQUESTS: usize = 17;
    const BATCH: usize = 8;
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let first = AtomicBool::new(true);
    let engine: Arc<dyn EvalEngine> = Arc::new(move |targets: &[[f64; 3]], out: &mut [f64]| {
        if first.swap(false, Ordering::SeqCst) {
            gate.lock().unwrap().recv().expect("gate opened");
        }
        for (t, o) in targets.iter().zip(out.iter_mut()) {
            *o = t[0] + 2.0 * t[1] + 3.0 * t[2];
        }
    });
    let cfg = ServiceConfig {
        tile_targets: 64, // eight requests per tile
        eval_workers: 1,
        ..ServiceConfig::default()
    };
    let mut server = EvalServer::bind("127.0.0.1:0", engine, cfg).expect("bind");
    let mut client = EvalClient::connect(&format!("127.0.0.1:{}", server.port())).expect("connect");

    let targets_of =
        |req: usize| -> Vec<[f64; 3]> { (0..BATCH).map(|k| [req as f64, k as f64, 0.5]).collect() };
    let mut ids = Vec::new();
    for req in 0..REQUESTS {
        ids.push(client.send(0, &targets_of(req)).expect("send"));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().totals.admitted_requests < REQUESTS as u64 {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    open.send(()).expect("worker waits at the gate");

    for _ in 0..REQUESTS {
        let resp = client.recv().expect("response");
        assert_eq!(resp.status, RespStatus::Ok);
        let req = ids
            .iter()
            .position(|&id| id == resp.req_id)
            .expect("known id");
        let want: Vec<f64> = targets_of(req)
            .iter()
            .map(|t| t[0] + 2.0 * t[1] + 3.0 * t[2])
            .collect();
        assert_eq!(resp.potentials, want, "request {req}");
    }
    client.close().expect("close");

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.totals.completed_requests, REQUESTS as u64);
    assert!(stats.accounting.balanced(), "{:?}", stats.accounting);
    // The gated tile holds at least the first request; the rest fill tiles
    // of eight, so 17 requests leave in at most three tiles.
    assert!(
        stats.totals.tiles <= 3,
        "expected fused tiles, got {} for {REQUESTS} requests",
        stats.totals.tiles
    );
    server.reset();
}

/// A client that dies mid-batch (no Bye, queued work outstanding) must
/// not wedge the bounded queues: its admission is released, the
/// accounting reconciles, `reset()` succeeds, and a later client gets
/// full service.
#[test]
fn mid_batch_disconnect_leaves_reset_usable() {
    // A deliberately slow engine so the dying client's requests are still
    // queued when its socket vanishes.
    let engine: Arc<dyn EvalEngine> = Arc::new(|targets: &[[f64; 3]], out: &mut [f64]| {
        std::thread::sleep(Duration::from_millis(20));
        for (t, o) in targets.iter().zip(out.iter_mut()) {
            *o = t[0] + t[1] + t[2];
        }
    });
    let cfg = ServiceConfig {
        tile_targets: 8, // one request per tile: the backlog stays queued
        admission: AdmissionConfig {
            max_tenant_targets: 64,
            max_total_targets: 64,
        },
        eval_workers: 1,
    };
    let mut server = EvalServer::bind("127.0.0.1:0", engine, cfg).expect("bind");
    let addr = format!("127.0.0.1:{}", server.port());

    {
        // Raw socket: pipeline several requests, read nothing, vanish.
        let mut s = TcpStream::connect(&addr).expect("connect");
        for req in 0..6u64 {
            let body = encode_request(req, 0, &[[0.5, 0.5, 0.5]; 8]);
            s.write_all(&encode_frame(FrameKind::EvalRequest, 0, &body))
                .expect("write");
        }
        s.shutdown(std::net::Shutdown::Both).expect("abort");
    }

    // The tenant's 48 admitted targets must drain (evaluated or purged)
    // once the disconnect is noticed — bounded queues cannot stay stuck.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let acct = server.stats().accounting;
        if acct.queued == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queued targets stuck after disconnect: {acct:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A fresh client still gets service after the carnage.
    let mut client = EvalClient::connect(&addr).expect("connect");
    let resp = client.eval(1, &[[1.0, 2.0, 3.0]]).expect("rpc");
    assert_eq!(resp.status, RespStatus::Ok);
    assert_eq!(resp.potentials, vec![6.0]);
    client.close().expect("close");

    server.shutdown();
    let stats = server.stats();
    assert!(stats.accounting.balanced(), "{:?}", stats.accounting);
    assert!(
        stats.accounting.purged > 0 || stats.totals.completed_requests >= 6,
        "disconnect must purge queued work or the work must have drained: {:?}",
        stats.accounting
    );
    // The regression: reset() must reconcile — a leak in purge accounting
    // (admission vs aggregator) panics here.
    server.reset();
    let stats = server.stats();
    assert_eq!(stats.totals.admitted_requests, 0);
    assert_eq!(stats.accounting.enqueued, 0);
    assert!(stats.tenants.is_empty());
}
