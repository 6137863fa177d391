//! Score encoding for the search's atomic incumbent.
//!
//! The ranking [`Metric`] itself lives in `flexer-solve` (the
//! admissible bounds are scored with the same objective the search
//! minimizes) and is re-exported here; this module keeps the
//! lock-free encoding the shared [`crate::Incumbent`] relies on.

pub use flexer_solve::Metric;

/// Encodes a non-negative score so that `u64` integer order matches
/// `f64` numeric order, enabling `AtomicU64::fetch_min` on scores.
///
/// Standard sign-magnitude trick: flip all bits of negative floats and
/// the sign bit of non-negative ones. Total order matches IEEE-754
/// numeric order for all non-NaN values, including `+inf`.
pub(crate) fn encode_score(score: f64) -> u64 {
    let bits = score.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`encode_score`].
pub(crate) fn decode_score(encoded: u64) -> f64 {
    let bits = if encoded >> 63 == 1 {
        encoded & !(1 << 63)
    } else {
        !encoded
    };
    f64::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_metric_defaults_to_the_paper_objective() {
        assert_eq!(Metric::default(), Metric::LatencyTimesTransfer);
        assert_eq!(Metric::default().score(10, 20), 200.0);
    }

    #[test]
    fn score_encoding_preserves_order() {
        let scores = [0.0, 1.0, 1.5, 1e9, 1e300, f64::INFINITY];
        for pair in scores.windows(2) {
            assert!(
                encode_score(pair[0]) < encode_score(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
        for s in scores {
            assert_eq!(decode_score(encode_score(s)), s, "{s}");
        }
        // Negative scores (not produced by any metric, but the encoding
        // is total over non-NaN floats) still order correctly.
        assert!(encode_score(-1.0) < encode_score(0.0));
        assert_eq!(decode_score(encode_score(-2.5)), -2.5);
    }
}
