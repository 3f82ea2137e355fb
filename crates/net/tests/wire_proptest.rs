//! Property tests of the dashmm-net wire format: arbitrary parcels survive
//! an encode/decode roundtrip bitwise-identically, and truncated, corrupted
//! or garbage input is rejected with a [`WireError`] — never a panic.

use dashmm_amt::{ActionId, GlobalAddress, Parcel};
use dashmm_net::wire::{
    decode_frame, decode_frame_exact, decode_parcel, decode_parcels_body, encode_frame,
    encode_parcel, parcel_wire_len, parcels_body, FrameDecoder, FrameKind, HEADER_BYTES,
};
use proptest::prelude::*;

/// Arbitrary parcels: any action, any packed global address, payloads
/// from empty to a few cache lines.
fn arb_parcel() -> impl Strategy<Value = Parcel> {
    (
        any::<u32>(),
        (any::<u32>(), any::<u32>()),
        prop::collection::vec(0u8..=255, 0..96),
    )
        .prop_map(|(action, (loc, idx), payload)| {
            Parcel::new(ActionId(action), GlobalAddress::new(loc, idx), payload)
        })
}

/// Parcels lack `PartialEq` by design (payloads can be huge); equality on
/// the wire is byte equality of the encoding.
fn encoded(p: &Parcel) -> Vec<u8> {
    let mut out = Vec::new();
    encode_parcel(p, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parcel_roundtrip_is_bitwise_identical(p in arb_parcel()) {
        let bytes = encoded(&p);
        prop_assert_eq!(bytes.len(), parcel_wire_len(&p));
        // One header size: the runtime's byte count is what a socket carries.
        prop_assert_eq!(bytes.len() as u64, p.wire_bytes());
        let (q, used) = decode_parcel(&bytes).expect("roundtrip decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(q.action.0, p.action.0);
        prop_assert_eq!(q.target.pack(), p.target.pack());
        prop_assert_eq!(&q.payload, &p.payload);
        prop_assert_eq!(encoded(&q), bytes);
    }

    #[test]
    fn parcels_frame_roundtrip(
        parcels in prop::collection::vec(arb_parcel(), 0..8),
        epoch in any::<u32>(),
        src in 0u16..1024,
    ) {
        let mut enc = Vec::new();
        for p in &parcels {
            encode_parcel(p, &mut enc);
        }
        let body = parcels_body(epoch, parcels.len() as u32, &enc);
        let frame = encode_frame(FrameKind::Parcels, src, &body);
        let f = decode_frame_exact(&frame).expect("frame decodes");
        prop_assert_eq!(f.kind, FrameKind::Parcels);
        prop_assert_eq!(f.src, src);
        let (e, out) = decode_parcels_body(&f.body).expect("body decodes");
        prop_assert_eq!(e, epoch);
        prop_assert_eq!(out.len(), parcels.len());
        for (a, b) in out.iter().zip(&parcels) {
            prop_assert_eq!(encoded(a), encoded(b));
        }
    }

    #[test]
    fn truncation_is_rejected_not_panicked(
        p in arb_parcel(),
        cut in 0usize..4096,
    ) {
        let frame = encode_frame(FrameKind::Parcels, 2, &parcels_body(1, 1, &encoded(&p)));
        let cut = cut % frame.len();
        // Streaming view: a shortened prefix is "wait for more bytes".
        match decode_frame(&frame[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a strict prefix"),
        }
        // Strict view: a shortened buffer is an error.
        prop_assert!(decode_frame_exact(&frame[..cut]).is_err());
        // Truncated parcel bytes inside an intact frame are also an error.
        let bytes = encoded(&p);
        if cut < bytes.len() {
            prop_assert!(decode_parcel(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bit_flips_never_decode_to_the_original(
        p in arb_parcel(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let clean = encode_frame(FrameKind::Parcels, 3, &parcels_body(1, 1, &encoded(&p)));
        let mut dirty = clean.clone();
        let at = at % dirty.len();
        dirty[at] ^= 1 << bit;
        // Either the flip is caught (magic/version/kind/length/checksum/body)
        // or it lands in an unchecksummed header field and decodes to a
        // *different* frame — it must never decode back to the original.
        match decode_frame_exact(&dirty) {
            Err(_) => {}
            Ok(f) => {
                let reenc = encode_frame(f.kind, f.src, &f.body);
                prop_assert!(reenc != clean, "bit flip at {at} was silently absorbed");
            }
        }
    }

    #[test]
    fn garbage_streams_never_panic(
        soup in prop::collection::vec(0u8..=255, 0..512),
        chunk in 1usize..64,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in soup.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    // Corrupt streams are terminal for the decoder.
                    Err(_) => return Ok(()),
                }
            }
        }
    }

    #[test]
    fn streaming_reassembles_frames_across_chunks(
        parcels in prop::collection::vec(arb_parcel(), 1..6),
        chunk in 1usize..96,
    ) {
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for (i, p) in parcels.iter().enumerate() {
            let body = parcels_body(i as u32, 1, &encoded(p));
            let f = encode_frame(FrameKind::Parcels, i as u16, &body);
            prop_assert_eq!(f.len(), HEADER_BYTES + body.len());
            stream.extend_from_slice(&f);
            want.push(body);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(f) = dec.next_frame().expect("clean stream") {
                got.push(f.body);
            }
        }
        prop_assert_eq!(dec.pending_bytes(), 0);
        prop_assert_eq!(got, want);
    }
}
