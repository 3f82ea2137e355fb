//! A fixed-seed byte fuzz over every decoder of bytes that cross a socket.
//!
//! Each decoder gets a valid body of its kind, then three families of
//! damage: the body cut at every length (and one byte long), random byte
//! flips from a printed seed, and each declared count set to `u32::MAX`.
//! Nothing may panic, every cut, overlong and hostile-count body must be
//! refused, and a hostile count must not size an allocation larger than
//! the bytes that follow it.  A counting allocator watches the last rule;
//! it refuses any single request over 1 GiB, so a decoder that trusts a
//! count aborts the test instead of asking the host for that memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dashmm_amt::codec::{decode_f64s, encode_f64s};
use dashmm_amt::{ActionId, GlobalAddress, LedgerSnapshot, Parcel, TraceEvent, TraceSet};
use dashmm_core::exec::{decode_bundle, encode_bundle};
use dashmm_net::launcher::{hello_body, parse_hello, parse_port_map, port_map_body};
use dashmm_net::wire::{
    ack_body, decode_ack_body, decode_gather_body, decode_parcels_body, decode_seq_parcels_body,
    decode_status_body, decode_u32_body, encode_parcel, gather_body, parcels_body, status_body,
    u32_body, Frame,
};
use dashmm_net::{
    decode_request, decode_response, decode_stats_request, decode_stats_response,
    decode_step_request, encode_request, encode_response, encode_stats_request,
    encode_stats_response, encode_step_request, merge_sum_f64, FrameKind, PhaseBreakdown,
    RespStatus,
};
use dashmm_obs::{decode_rank_trace, encode_rank_trace};

/// The printed seed of the byte flips.
const SEED: u64 = 0x5EED_0041;
/// Flipped copies of each valid body.
const FLIPS: usize = 2000;
/// Bytes an error path may allocate on top of the input (its message).
const SLACK: usize = 256;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request made on each thread.
struct Watch;

fn note(size: usize) -> bool {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    size <= 1 << 30
}

unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if note(l.size()) {
            System.alloc(l)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if note(l.size()) {
            System.alloc_zeroed(l)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, size: usize) -> *mut u8 {
        if note(size) {
            System.realloc(p, l, size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static ALLOC: Watch = Watch;

/// A decoder under test: `true` when it accepts the bytes.
type Decode = Box<dyn Fn(&[u8]) -> bool>;

/// One decoder, a valid body of its kind and the offsets of its declared
/// counts (each a `u32` saying how many records or bytes follow).
struct Case {
    name: &'static str,
    body: Vec<u8>,
    decode: Decode,
    counts: Vec<usize>,
}

fn f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_f64s(values, &mut out);
    out
}

fn frame(kind: FrameKind, body: &[u8]) -> Frame {
    Frame {
        kind,
        src: 0,
        body: body.to_vec(),
    }
}

fn cases() -> Vec<Case> {
    let parcels = {
        let mut blob = Vec::new();
        for payload in [f64s(&[1.5, -2.0]), vec![7; 5]] {
            encode_parcel(
                &Parcel::new(ActionId(0), GlobalAddress::new(1, 5), payload),
                &mut blob,
            );
        }
        parcels_body(42, 2, &blob)
    };
    let seq_parcels = [
        &[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
        &parcels[..],
    ]
    .concat();
    let ledger = {
        let snap = LedgerSnapshot {
            rank: 1,
            generation: 5,
            acked: vec![0, 42, 7],
            fired: vec![0b1011, 1 << 35],
            num_nodes: 100,
        };
        let mut out = Vec::new();
        snap.encode(&mut out);
        out
    };
    let rank_trace = {
        let mut t = TraceSet::new(2);
        t.push_worker(vec![TraceEvent::tagged(4, 9, 10, 20)]);
        t.push_lane("net", vec![TraceEvent::instant(13, 15)]);
        encode_rank_trace(3, 123_456_789, &t)
    };
    let part = f64s(&[0.25, -8.0, 1e300]);
    let phases = PhaseBreakdown {
        queue_us: 1.0,
        fuse_us: 2.0,
        compute_us: 3.0,
        reply_us: 4.0,
        total_us: 10.0,
    };
    let case = |name, body, decode: Decode, counts: &[usize]| Case {
        name,
        body,
        decode,
        counts: counts.to_vec(),
    };
    vec![
        case(
            "Parcels",
            parcels.clone(),
            Box::new(|b| decode_parcels_body(b).is_ok()),
            &[4, 8 + 12],
        ),
        case(
            "SeqParcels",
            seq_parcels,
            Box::new(|b| {
                decode_seq_parcels_body(b).is_ok_and(|(_, _, p)| decode_parcels_body(p).is_ok())
            }),
            &[16 + 4, 16 + 8 + 12],
        ),
        case(
            "Ack",
            ack_body(9),
            Box::new(|b| decode_ack_body(b).is_ok()),
            &[],
        ),
        case(
            "Done/Barrier/BarrierRelease",
            u32_body(7),
            Box::new(|b| decode_u32_body(b).is_ok()),
            &[],
        ),
        case(
            "Status",
            status_body(3, 9, 100, 99),
            Box::new(|b| decode_status_body(b).is_ok()),
            &[],
        ),
        case(
            "Gather",
            gather_body(5, &[1, 2, 3]),
            Box::new(|b| decode_gather_body(b).is_ok()),
            &[4],
        ),
        case(
            "bundle",
            encode_bundle(7, &[3, 9], &[1.0, 2.0, 3.0, -0.5], &[0..1, 2..4]),
            Box::new(|b| {
                let layout =
                    |id, eids: &[u32]| (id == 7 && eids == [3, 9]).then(|| (4, vec![0..1, 2..4]));
                decode_bundle(b, layout).is_ok()
            }),
            &[4],
        ),
        case(
            "LCO-set payload",
            f64s(&[1.5, -2.0]),
            Box::new(|b| decode_f64s(b).is_ok_and(|v| v.len() == 2)),
            &[],
        ),
        case(
            "ledger snapshot",
            ledger,
            Box::new(|b| LedgerSnapshot::decode(b).is_some()),
            &[12, 16],
        ),
        case(
            "rank trace",
            rank_trace,
            Box::new(|b| decode_rank_trace(b).is_ok()),
            // n_lanes, then the first lane's label length and event count.
            &[20, 24, 30],
        ),
        case(
            "Hello",
            hello_body(3, 40_000).to_vec(),
            Box::new(|b| parse_hello(&frame(FrameKind::Hello, b)).is_ok()),
            &[],
        ),
        case(
            "PortMap",
            port_map_body(&[1000, 2000, 3000]),
            Box::new(|b| parse_port_map(&frame(FrameKind::PortMap, b)).is_ok()),
            &[0],
        ),
        case(
            "gathered f64 part",
            part.clone(),
            Box::new(move |b| merge_sum_f64(&[part.clone(), b.to_vec()]).is_ok()),
            &[],
        ),
        case(
            "EvalRequest",
            encode_request(11, 2, &[[0.5, -1.0, 2.0]]),
            Box::new(|b| decode_request(b).is_ok()),
            &[12],
        ),
        case(
            "StepSources",
            encode_step_request(12, 2, &[(4, [0.1, 0.2, 0.3])], &[(5, -1.0)]),
            Box::new(|b| decode_step_request(b).is_ok()),
            &[12, 16],
        ),
        case(
            "EvalResponse",
            encode_response(11, RespStatus::Ok, &phases, &[1.25, -3.5]),
            Box::new(|b| decode_response(b).is_ok()),
            &[29],
        ),
        case(
            "StatsRequest",
            encode_stats_request(13),
            Box::new(|b| decode_stats_request(b).is_ok()),
            &[],
        ),
        case(
            "StatsResponse",
            encode_stats_response(13, "{}"),
            Box::new(|b| decode_stats_response(b).is_ok()),
            &[8],
        ),
    ]
}

/// Run `decode` on `bytes`: `Some(accepted)`, or `None` if it panicked.
/// Also returns the largest single allocation the call made.
fn probe(decode: &Decode, bytes: &[u8]) -> (Option<bool>, usize) {
    LARGEST.with(|c| c.set(0));
    let got = catch_unwind(AssertUnwindSafe(|| decode(bytes))).ok();
    (got, LARGEST.with(Cell::get))
}

#[test]
fn hostile_bytes_are_refused_by_every_decoder() {
    println!("hostile-bytes seed {SEED:#x}");
    let mut x = SEED;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut faults = Vec::new();
    for Case {
        name,
        body,
        decode,
        counts,
    } in cases()
    {
        assert_eq!(probe(&decode, &body).0, Some(true), "{name}: valid body");
        let overlong = [&body[..], &[0]].concat();
        let cuts = (0..body.len()).map(|len| (format!("cut at {len}"), body[..len].to_vec()));
        for (what, bytes) in cuts.chain([("one byte long".to_string(), overlong)]) {
            match probe(&decode, &bytes).0 {
                Some(false) => {}
                Some(true) => faults.push(format!("{name}: {what} accepted")),
                None => faults.push(format!("{name}: {what} panicked")),
            }
        }
        for k in 0..FLIPS {
            let mut bytes = body.clone();
            for _ in 0..1 + rand() % 4 {
                let at = rand() as usize % bytes.len();
                bytes[at] ^= 1 + (rand() % 255) as u8;
            }
            if probe(&decode, &bytes).0.is_none() {
                faults.push(format!("{name}: flip #{k} panicked"));
            }
        }
        for &at in &counts {
            let mut bytes = body.clone();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let follow = body.len() - (at + 4);
            match probe(&decode, &bytes) {
                (None, _) => faults.push(format!("{name}: count at {at} panicked")),
                (Some(true), _) => faults.push(format!("{name}: count at {at} accepted")),
                (Some(false), largest) if largest > follow + SLACK => faults.push(format!(
                    "{name}: count at {at} allocated {largest} B over {follow} B"
                )),
                (Some(false), _) => {}
            }
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
