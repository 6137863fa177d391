//! Inline layer shapes whose derived sizes would overflow: each is a
//! typed `bad_request`, never an arithmetic panic in a debug build.
//! A property sweep drives every inline layer field through the edge
//! values and random `u32`s.

use flexer_serve::{parse_request, Deadline, Engine, ErrorKind};
use proptest::prelude::*;

/// Parses `line` and, if that succeeds, runs it on a fresh memory-only
/// engine; returns the error kind of whichever step failed.
fn rejection(line: &str) -> ErrorKind {
    let outcome =
        parse_request(line).and_then(|req| Engine::new().run(&req, &Deadline::unbounded()));
    match outcome {
        Ok(reply) => panic!("hostile shape was scheduled: {reply}"),
        Err((kind, _)) => kind,
    }
}

#[test]
fn regression_padded_height_overflow_is_a_bad_request() {
    let line = r#"{"op":"schedule","layers":[{"in_channels":8,"height":4294967295,"width":8,"out_channels":8}]}"#;
    assert_eq!(rejection(line), ErrorKind::BadRequest);
}

#[test]
fn regression_working_set_overflow_is_a_bad_request() {
    let line = r#"{"op":"schedule","layers":[{"in_channels":4294967295,"height":14,"width":14,"out_channels":4294967295}]}"#;
    assert_eq!(rejection(line), ErrorKind::BadRequest);
}

/// A layer field: an edge value, a small size a layer can really
/// have, or any `u32`.
fn field() -> impl Strategy<Value = u64> {
    prop_oneof![
        prop::sample::select(vec![
            0u64,
            1,
            2,
            1 << 31,
            (1 << 32) - 3,
            (1 << 32) - 2,
            (1 << 32) - 1,
        ]),
        1u64..=64,
        any::<u32>().prop_map(u64::from),
    ]
}

/// Layers with at most this many multiply-accumulates also run through
/// the engine. Anytime mode under an expired deadline runs one
/// candidate per layer, so each case stays small.
const MAX_RUN_MACS: u64 = 1 << 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn any_inline_layer_is_a_typed_error_or_an_ok_reply(
        in_channels in field(),
        height in field(),
        width in field(),
        out_channels in field(),
    ) {
        let line = format!(
            r#"{{"op":"schedule","mode":"anytime","deadline_ms":0,"layers":[{{"in_channels":{in_channels},"height":{height},"width":{width},"out_channels":{out_channels}}}]}}"#
        );
        // A rejection here is a typed error by construction.
        if let Ok(req) = parse_request(&line) {
            let layer = &req.network.as_ref().unwrap().layers()[0];
            if layer.macs() <= MAX_RUN_MACS {
                let deadline = Deadline::from_ms(req.deadline_ms, 0);
                match Engine::new().run(&req, &deadline) {
                    Ok(reply) => prop_assert!(reply.contains(r#""ok":true"#), "{reply}"),
                    Err((kind, msg)) => prop_assert!(
                        kind == ErrorKind::Sched || kind == ErrorKind::BadRequest,
                        "{line}: {kind:?} {msg}"
                    ),
                }
            }
        }
    }
}
