//! Inline layer shapes whose derived sizes would overflow: each is a
//! typed `bad_request`, never an arithmetic panic in a debug build.

use flexer_serve::{parse_request, Deadline, Engine, ErrorKind};

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
