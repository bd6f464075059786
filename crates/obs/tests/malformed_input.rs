//! Malformed-input sweeps for the parsers that read files from outside the
//! process: the JSON parser with the `metrics.json` reader built on it, and
//! the window-assertion grammar. Every mangled input must come back as `Ok`
//! or `Err` — never a panic — and whatever parses must round-trip.

use ncp2_obs::json::parse;
use ncp2_obs::report::parse_metrics;
use ncp2_obs::{default_check_assertions, Assertion, TIMELINE_CHECK_ASSERTION};

/// The `metrics.json` the CI observability smoke writes (`obs_report --app
/// TSP --mode I+P+D --nprocs 4 --out-dir DIR`).
const METRICS: &str = include_str!("data/obs_smoke_metrics.json");

/// Feeds `text` to both JSON readers; a report that parses must survive a
/// write/read round trip unchanged.
fn parse_json_both_ways(text: &str) {
    let _ = parse(text);
    if let Ok(report) = parse_metrics(text) {
        assert_eq!(parse_metrics(&report.to_json()), Ok(report), "{text}");
    }
}

#[test]
fn metrics_json_round_trips_byte_for_byte() {
    let report = parse_metrics(METRICS).expect("the committed metrics.json parses");
    assert_eq!(report.to_json(), METRICS);
}

#[test]
fn metrics_json_survives_every_truncation() {
    assert!(METRICS.is_ascii(), "byte offsets below are char boundaries");
    assert!(parse_metrics(METRICS).is_ok());
    let body = METRICS.trim_end().len();
    for end in 0..METRICS.len() {
        let prefix = &METRICS[..end];
        parse_json_both_ways(prefix);
        // A document cut before its closing brace is never JSON.
        assert!(
            end >= body || parse(prefix).is_err(),
            "prefix of {end} bytes parsed"
        );
    }
}

#[test]
fn metrics_json_survives_every_single_byte_replacement() {
    assert!(
        METRICS.is_ascii(),
        "an ASCII replacement keeps the text UTF-8"
    );
    let mut bytes = METRICS.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in b"\"{]\\9" {
            bytes[i] = b;
            let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            parse_json_both_ways(text);
        }
        bytes[i] = original;
    }
}

/// Every assertion text shipped with the tools: the timeline gate's
/// [`TIMELINE_CHECK_ASSERTION`], the module-doc grammar examples and the
/// chaos gate's default.
fn shipped_assertions() -> Vec<String> {
    let mut texts = vec![
        TIMELINE_CHECK_ASSERTION.to_string(),
        "retransmits > 0 for 2".to_string(),
        "monotone queue_depth for 4".to_string(),
    ];
    texts.extend(default_check_assertions().iter().map(Assertion::text));
    texts
}

/// Parses `text`; an assertion that parses must print back to text that
/// parses to the same assertion.
fn parse_assertion_round_trip(text: &str) {
    if let Ok(a) = Assertion::parse(text) {
        assert_eq!(Assertion::parse(&a.text()), Ok(a), "{text}");
    }
}

#[test]
fn assertion_grammar_survives_truncated_dropped_and_doubled_tokens() {
    for text in shipped_assertions() {
        assert!(Assertion::parse(&text).is_ok(), "{text}");
        for (end, _) in text.char_indices() {
            parse_assertion_round_trip(&text[..end]);
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        for i in 0..toks.len() {
            let mut dropped = toks.clone();
            dropped.remove(i);
            parse_assertion_round_trip(&dropped.join(" "));
            let mut doubled = toks.clone();
            doubled.insert(i, toks[i]);
            parse_assertion_round_trip(&doubled.join(" "));
        }
    }
}
