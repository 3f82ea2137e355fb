//! Stress and behavioural tests of the AMT runtime beyond the unit level:
//! stealing, wide fan-in/fan-out, delayed cascades, parcel payloads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dashmm_amt::codec::{decode_f64s, encode_f64s};
use dashmm_amt::{GlobalAddress, LcoSpec, ObsLevel, Parcel, Runtime, RuntimeConfig};

fn rt(localities: usize, workers: usize) -> Arc<Runtime> {
    Runtime::new(RuntimeConfig {
        localities,
        workers_per_locality: workers,
        obs: ObsLevel::Off,
    })
}

#[test]
fn work_is_stolen_across_workers() {
    // All tasks are seeded to one injector; with several workers and a
    // barrier-ish workload every worker should end up executing some.
    let r = rt(1, 4);
    let per_worker: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    for _ in 0..64 {
        let pw = Arc::clone(&per_worker);
        r.seed(0, move |ctx| {
            pw[ctx.worker].fetch_add(1, Ordering::Relaxed);
            // Block so other workers (even on a single hardware core, via
            // OS timeslicing) get a chance to pull work.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    }
    r.run();
    let counts: Vec<u64> = per_worker
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    assert_eq!(counts.iter().sum::<u64>(), 64);
    let active = counts.iter().filter(|&&c| c > 0).count();
    assert!(
        active >= 2,
        "expected work to involve ≥ 2 workers: {counts:?}"
    );
}

#[test]
fn wide_fan_in_reduction() {
    // 2000 inputs into one LCO from 4 localities.
    let r = rt(4, 2);
    let sum = r.lco_new(0, LcoSpec::reduce_sum(1, 2000));
    for i in 0..2000u32 {
        let loc = i % 4;
        r.seed(loc, move |ctx| ctx.lco_set(sum, &[i as f64]));
    }
    let rep = r.run();
    let want = (0..2000u64).sum::<u64>() as f64;
    assert_eq!(r.lco_get(sum), Some(vec![want]));
    assert!(
        rep.messages >= 1000,
        "three quarters of the sets are remote"
    );
}

#[test]
fn fan_out_tree_across_localities() {
    // A binary fan-out tree of depth 10 rooted on locality 0, with leaves
    // reporting to a reduction — exercises recursive spawning and routing.
    let localities = 3;
    let r = rt(localities, 2);
    let leaves: usize = 1 << 10;
    let sum = r.lco_new(0, LcoSpec::reduce_sum(1, leaves as u32));
    let spawn_action = {
        let r2: Arc<std::sync::Mutex<Option<dashmm_amt::ActionId>>> =
            Arc::new(std::sync::Mutex::new(None));
        let r2c = Arc::clone(&r2);
        let action = r.register_action(Arc::new(move |ctx, _target, payload: &[u8]| {
            let depth = payload[0];
            let action = r2c.lock().unwrap().expect("registered");
            if depth == 0 {
                ctx.lco_set(sum, &[1.0]);
            } else {
                for k in 0..2u32 {
                    let loc = (ctx.locality + 1 + k) % 3;
                    ctx.send(Parcel::new(
                        action,
                        GlobalAddress::new(loc, 0),
                        vec![depth - 1],
                    ));
                }
            }
        }));
        *r2.lock().unwrap() = Some(action);
        action
    };
    let root = Parcel::new(spawn_action, GlobalAddress::new(0, 0), vec![10]);
    r.seed(0, move |ctx| ctx.send(root));
    let rep = r.run();
    assert_eq!(r.lco_get(sum), Some(vec![leaves as f64]));
    assert!(rep.tasks as usize >= 2 * leaves - 1);
}

#[test]
fn quiescence_with_delayed_cascade() {
    // Tasks that sleep before spawning more work: quiescence detection
    // must not fire early.
    let r = rt(2, 2);
    let count = Arc::new(AtomicU64::new(0));
    let c0 = Arc::clone(&count);
    r.seed(0, move |ctx| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        for _ in 0..8 {
            let c = Arc::clone(&c0);
            ctx.spawn(move |ctx2| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let c2 = Arc::clone(&c);
                ctx2.spawn(move |_| {
                    c2.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
    });
    r.run();
    assert_eq!(count.load(Ordering::SeqCst), 8);
}

#[test]
fn parcel_payload_roundtrip_through_network() {
    // Send structured f64 payloads across localities and verify framing.
    let r = rt(2, 1);
    let out = r.lco_new(1, LcoSpec::reduce_sum(3, 2));
    let action = r.register_action(Arc::new(move |ctx, _t, payload: &[u8]| {
        let vals = decode_f64s(payload).unwrap();
        ctx.lco_set(out, &vals);
    }));
    r.seed(0, move |ctx| {
        for k in 0..2 {
            let mut payload = Vec::new();
            encode_f64s(&[k as f64, 10.0 * k as f64, -1.0], &mut payload);
            ctx.send(Parcel::new(action, GlobalAddress::new(1, 0), payload));
        }
    });
    r.run();
    assert_eq!(r.lco_get(out), Some(vec![1.0, 10.0, -2.0]));
}
