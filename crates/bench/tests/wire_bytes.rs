//! The bytes every body kind puts on a socket, pinned.
//!
//! Each row encodes a fixed value with the encoder the runtime uses and
//! compares the bytes with a string recorded before the body encoders were
//! moved onto one shared codec (`dashmm_obs::codec`).  A change to any
//! wire format fails here first.

use dashmm_amt::codec::encode_f64s;
use dashmm_amt::{ActionId, GlobalAddress, LedgerSnapshot, Parcel, TraceEvent, TraceSet};
use dashmm_core::exec::encode_bundle;
use dashmm_net::launcher::{hello_body, port_map_body};
use dashmm_net::wire::{ack_body, encode_parcel, gather_body, parcels_body, status_body, u32_body};
use dashmm_net::{
    encode_request, encode_response, encode_stats_request, encode_stats_response,
    encode_step_request, PhaseBreakdown, RespStatus,
};
use dashmm_obs::encode_rank_trace;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_f64s(values, &mut out);
    out
}

#[test]
fn every_body_kind_keeps_its_wire_bytes() {
    let lco_set = {
        let set = Parcel::new(ActionId(0), GlobalAddress::new(1, 5), f64s(&[1.5, -2.0]));
        let mut out = Vec::new();
        encode_parcel(&set, &mut out);
        out
    };
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
    let phases = PhaseBreakdown {
        queue_us: 1.0,
        fuse_us: 2.0,
        compute_us: 3.0,
        reply_us: 4.0,
        total_us: 10.0,
    };
    let rows: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "bundle",
            encode_bundle(7, &[3, 9], &[1.0, 2.0, 3.0, -0.5], &[0..1, 2..4]),
            "07000000020000000300000009000000000000000000f03f0000000000000840000000000000e0bf",
        ),
        ("LCO-set parcel", lco_set.clone(), "00000000050000000100000010000000000000000000f83f00000000000000c0"),
        ("ledger snapshot", ledger, "010000000500000000000000640000000300000000000000000000002a0000000000000007000000000000000b000000000000000000000008000000"),
        ("rank trace", rank_trace, "5453424f0300000015cd5b070000000002000000020000000200000077300100000004090000000a000000000000001400000000000000030000006e6574010000000dffffffff0f000000000000000f00000000000000"),
        ("Hello", hello_body(3, 40_000).to_vec(), "03000000409c"),
        ("PortMap", port_map_body(&[1000, 2000, 3000]), "03000000e803d007b80b"),
        ("gathered f64 part", f64s(&[0.25, -8.0, 1e300]), "000000000000d03f00000000000020c09c7500883ce4377e"),
        ("Parcels", parcels_body(42, 1, &lco_set), "2a0000000100000000000000050000000100000010000000000000000000f83f00000000000000c0"),
        ("Status", status_body(3, 9, 100, 99), "03000000090000000000000064000000000000006300000000000000"),
        ("Done/Barrier/BarrierRelease", u32_body(7), "07000000"),
        ("Gather", gather_body(5, &[1, 2, 3]), "0500000003000000010203"),
        ("Ack", ack_body(0x0102_0304_0506_0708), "0807060504030201"),
        ("EvalRequest", encode_request(11, 2, &[[0.5, -1.0, 2.0]]), "0b000000000000000200000001000000000000000000e03f000000000000f0bf0000000000000040"),
        (
            "EvalResponse",
            encode_response(11, RespStatus::Ok, &phases, &[1.25, -3.5]),
            "0b00000000000000000000803f0000004000004040000080400000204102000000000000000000f43f0000000000000cc0",
        ),
        (
            "StepSources",
            encode_step_request(12, 2, &[(4, [0.1, 0.2, 0.3])], &[(5, -1.0)]),
            "0c00000000000000020000000100000001000000040000009a9999999999b93f9a9999999999c93f333333333333d33f05000000000000000000f0bf",
        ),
        ("StatsRequest", encode_stats_request(13), "0d00000000000000"),
        ("StatsResponse", encode_stats_response(13, "{}"), "0d00000000000000020000007b7d"),
    ];
    let mut moved = Vec::new();
    for (name, bytes, want) in rows {
        if hex(&bytes) != want {
            moved.push(format!("{name}: {}", hex(&bytes)));
        }
    }
    assert!(moved.is_empty(), "wire bytes moved:\n{}", moved.join("\n"));
}
