//! Codec round-trip fuzzing: every [`Msg`] variant survives
//! encode→decode unchanged, and the decoder rejects truncated, oversized,
//! and unknown-tag frames instead of panicking or mis-decoding.

mod arb;

use arb::{arb_msg_variant, VARIANTS};
use lhrs_core::wire::{decode_msg, encode_msg, put_varint, tag, WireError, MAX_LEN, WIRE_VERSION};
use lhrs_testkit::cases;

#[test]
fn every_variant_roundtrips() {
    // Deterministic coverage: each of the 43 variants, several instances.
    cases("wire_roundtrip_sweep", 16, |rng| {
        for v in 0..VARIANTS {
            let msg = arb_msg_variant(rng, v);
            let buf = encode_msg(&msg);
            assert_eq!(buf[0], WIRE_VERSION);
            let back = decode_msg(&buf)
                .unwrap_or_else(|e| panic!("variant {v} failed to decode: {e} (msg {msg:?})"));
            assert_eq!(back, msg, "variant {v} round-trip");
        }
    });
}

#[test]
fn random_messages_roundtrip() {
    cases("wire_roundtrip_random", 300, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let buf = encode_msg(&msg);
        assert_eq!(decode_msg(&buf).unwrap(), msg);
    });
}

#[test]
fn every_strict_prefix_is_rejected() {
    // A truncated frame must error (never mis-decode or panic). Every
    // strict prefix of a valid encoding is a truncated frame.
    cases("wire_prefix_rejection", 24, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let buf = encode_msg(&msg);
        for cut in 0..buf.len() {
            // Any typed error is correct; only a successful decode is a bug.
            if let Ok(m) = decode_msg(&buf[..cut]) {
                panic!("prefix {cut}/{} decoded as {m:?}", buf.len());
            }
        }
    });
}

#[test]
fn random_garbage_never_panics() {
    cases("wire_garbage", 200, |rng| {
        let len = rng.range_usize(0, 64);
        let garbage = rng.bytes(len);
        let _ = decode_msg(&garbage); // must return, not panic
    });
}

#[test]
fn unknown_tags_are_rejected_with_context() {
    // Top-level tag 0 and anything above the table.
    for bad in [0u8, 44, 99, 255] {
        let buf = [WIRE_VERSION, bad];
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::UnknownTag {
                what: "Msg",
                tag: bad
            }
        );
    }
    // Nested enum tag: a Do frame whose ClientOp tag is bogus.
    let mut buf = vec![WIRE_VERSION, tag::DO];
    put_varint(&mut buf, 1); // op_id
    buf.push(9); // no such ClientOp
    assert_eq!(
        decode_msg(&buf).unwrap_err(),
        WireError::UnknownTag {
            what: "ClientOp",
            tag: 9
        }
    );
}

#[test]
fn oversized_length_claims_are_rejected() {
    // SplitLoad claiming an absurd record count.
    let mut buf = vec![WIRE_VERSION, tag::SPLIT_LOAD];
    put_varint(&mut buf, 3); // bucket
    buf.push(0); // level
    put_varint(&mut buf, MAX_LEN + 7); // record count claim
    assert_eq!(
        decode_msg(&buf).unwrap_err(),
        WireError::Oversized {
            what: "list",
            len: MAX_LEN + 7
        }
    );
    // A large-but-under-cap claim with no data behind it is truncation,
    // and must be detected before allocating the claimed amount.
    let mut buf = vec![WIRE_VERSION, tag::SPLIT_LOAD];
    put_varint(&mut buf, 3);
    buf.push(0);
    put_varint(&mut buf, MAX_LEN - 1);
    assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
}

#[test]
fn trailing_bytes_are_rejected() {
    cases("wire_trailing", 32, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let mut buf = encode_msg(&msg);
        buf.push(rng.next_u8());
        assert!(matches!(
            decode_msg(&buf),
            Err(WireError::Trailing { .. }) | Err(WireError::Truncated)
        ));
    });
}
