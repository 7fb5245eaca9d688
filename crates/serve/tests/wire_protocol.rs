//! Wire-protocol robustness: the codec never panics on arbitrary
//! bytes, every malformed shape maps to a **named** protocol error,
//! and a live server survives garbage — answering it with an error
//! frame and continuing to serve.

use proptest::prelude::*;
use sp_core::ServiceScheme;
use sp_net::{deploy::DeploymentConfig, Network};
use sp_serve::wire::{
    decode_request, decode_response, encode_move, encode_query, write_frame, FrameReader, Request,
    FLAG_TRACE, MAX_FRAME, OP_MOVE, OP_QUERY,
};
use sp_serve::{serve, ProtocolErrorKind, Response, ServeClient, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;

fn small_net(n: usize, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

fn spin_up() -> ServerHandle {
    serve(small_net(120, 5), ServeConfig::ephemeral(2)).expect("bind ephemeral")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes decode to `Ok` or a named error — never a panic.
    #[test]
    fn decode_request_never_panics(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let _ = decode_request(&bytes);
    }

    /// Same for the client-side response decoder.
    #[test]
    fn decode_response_never_panics(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let _ = decode_response(&bytes);
    }

    /// Every strict prefix of a valid `QUERY` payload is a named
    /// `Truncated` error (and the full payload decodes back exactly).
    #[test]
    fn query_prefixes_truncate_cleanly(
        src in 0u32..1_000_000,
        dst in 0u32..1_000_000,
        scheme in 0u8..3,
        flags in 0u8..2,
    ) {
        let mut payload = Vec::new();
        encode_query(&mut payload, src, dst, scheme, flags & FLAG_TRACE != 0);
        for cut in 0..payload.len() {
            let err = decode_request(&payload[..cut]).expect_err("prefix must fail");
            prop_assert_eq!(err.kind, ProtocolErrorKind::Truncated);
        }
        match decode_request(&payload) {
            Ok(Request::Query { src: s, dst: d, scheme: c, trace }) => {
                prop_assert_eq!((s, d, c, trace), (src, dst, scheme, flags & FLAG_TRACE != 0));
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    /// `MOVE` batches roundtrip entry-exact through the wire form.
    #[test]
    fn move_batches_roundtrip(
        entries in prop::collection::vec(
            (0u32..100_000, -1e6..1e6f64, -1e6..1e6f64),
            0..40,
        ),
    ) {
        let mut payload = Vec::new();
        encode_move(&mut payload, &entries);
        match decode_request(&payload) {
            Ok(Request::Move(batch)) => {
                prop_assert_eq!(batch.len(), entries.len());
                let got: Vec<_> = batch.iter().collect();
                prop_assert_eq!(got, entries);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    /// The frame reader reassembles any frame sequence under any
    /// chunking of the byte stream.
    #[test]
    fn frame_reader_survives_arbitrary_chunking(
        frames in prop::collection::vec(prop::collection::vec(0u8..=255, 0..48), 1..6),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for payload in &frames {
            write_frame(&mut stream, payload).expect("vec write");
        }
        let mut reader = FrameReader::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.extend(piece);
            while let Some(frame) = reader.next_frame().expect("in-cap frames") {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(reader.pending(), 0);
    }
}

/// Request-level garbage: the server answers each bad frame with a
/// named error on the same connection and keeps serving it.
#[test]
fn server_answers_garbage_with_named_errors_and_stays_alive() {
    let handle = spin_up();
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let cases: &[(&[u8], ProtocolErrorKind)] = &[
        (&[0x7F], ProtocolErrorKind::UnknownOpcode),
        (&[], ProtocolErrorKind::Truncated),
        (&[OP_QUERY, 1, 0, 0, 0], ProtocolErrorKind::Truncated),
        (
            &[OP_QUERY, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0xAB],
            ProtocolErrorKind::TrailingBytes,
        ),
        (
            &[OP_MOVE, 2, 0, 0, 0, 1, 2, 3],
            ProtocolErrorKind::Truncated,
        ),
    ];
    for (payload, want) in cases {
        match client.send_raw(payload).expect("an answer frame") {
            Response::Error { error, name, .. } => {
                assert_eq!(error.kind, *want, "payload {payload:?}");
                assert_eq!(name, want.name());
            }
            other => panic!("expected error for {payload:?}, got {other:?}"),
        }
    }

    // Semantic errors carry their family too.
    let mut bad_scheme = Vec::new();
    encode_query(&mut bad_scheme, 0, 1, 99, false);
    match client.send_raw(&bad_scheme) {
        Ok(Response::Error { error, .. }) => {
            assert_eq!(error.kind, ProtocolErrorKind::BadScheme);
            assert_eq!(error.context, 99);
        }
        other => panic!("expected bad-scheme, got {other:?}"),
    }
    match client.query(0, 120, ServiceScheme::Slgf2, false) {
        Err(sp_serve::ClientError::Server { error, .. }) => {
            assert_eq!(error.kind, ProtocolErrorKind::BadNodeId);
            assert_eq!(error.context, 120);
        }
        other => panic!("expected bad-node-id, got {other:?}"),
    }
    match client.move_batch(&[(3, f64::NAN, 1.0)]) {
        Err(sp_serve::ClientError::Server { error, .. }) => {
            assert_eq!(error.kind, ProtocolErrorKind::BadCoordinate)
        }
        other => panic!("expected bad-coordinate, got {other:?}"),
    }
    // Out-of-area positions too (the field is 200 m square), and a batch
    // with one bad entry stays wholly unapplied.
    let (epoch, ..) = client.info().expect("info");
    let out_of_area: [&[(u32, f64, f64)]; 2] =
        [&[(3, 250.0, 1.0)], &[(4, 10.0, 10.0), (5, 100.0, -0.5)]];
    for batch in out_of_area {
        match client.move_batch(batch) {
            Err(sp_serve::ClientError::Server { error, .. }) => {
                assert_eq!(error.kind, ProtocolErrorKind::BadCoordinate, "{batch:?}")
            }
            other => panic!("expected bad-coordinate for {batch:?}, got {other:?}"),
        }
    }
    assert_eq!(
        client.info().expect("info").0,
        epoch,
        "a rejected MOVE published"
    );
    // Hostile CHAOS parameters are parse errors, not worker panics.
    let bad_specs = [
        "definitely-not-a-chaos-class",
        "drop:p=2",
        "drop:p=NaN",
        "drop:prob=0.5",
        "partition:len=1e30@round5",
    ];
    for spec in bad_specs {
        match client.chaos(1, 7, spec) {
            Err(sp_serve::ClientError::Server { error, .. }) => {
                assert_eq!(error.kind, ProtocolErrorKind::BadSpec, "{spec}")
            }
            other => panic!("expected bad-spec for {spec}, got {other:?}"),
        }
    }

    // The same connection still serves valid queries afterwards.
    let reply = client
        .query(0, 119, ServiceScheme::Slgf2, false)
        .expect("connection survived the garbage");
    assert!(reply.epoch <= handle.service().epoch());

    // And the error tally matches what we threw at it.
    let stats = handle.stats();
    assert_eq!(stats.protocol_errors, 15);
    assert_eq!(stats.queries, 1);

    handle.shutdown();
    drop(client);
    handle.join();
}

/// Framing-level garbage: an oversized length header gets a named
/// error and a close — and the listener keeps accepting new clients.
#[test]
fn oversized_header_closes_one_connection_not_the_server() {
    let handle = spin_up();

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
        .expect("send oversized header");
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 1024];
    let mut frames = Vec::new();
    loop {
        let n = raw.read(&mut buf).expect("read");
        if n == 0 {
            break;
        }
        reader.extend(&buf[..n]);
        while let Some(frame) = reader.next_frame().expect("server frames are well-formed") {
            frames.push(frame.to_vec());
        }
    }
    assert_eq!(frames.len(), 1, "one error frame, then EOF");
    match decode_response(&frames[0]) {
        Ok(Response::Error { error, .. }) => {
            assert_eq!(error.kind, ProtocolErrorKind::Oversized);
            assert_eq!(error.context, MAX_FRAME as u64 + 1);
        }
        other => panic!("expected oversized error, got {other:?}"),
    }

    // Fresh connections still work: the poisoned one died alone.
    let mut client = ServeClient::connect(handle.addr()).expect("reconnect");
    client
        .query(0, 60, ServiceScheme::Lgf, true)
        .expect("server still serving");

    handle.shutdown();
    drop(client);
    handle.join();
}
