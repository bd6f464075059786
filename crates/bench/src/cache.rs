//! Content-hashed result cache for the experiment engine.
//!
//! A cached grid point is one JSON file under `results/cache/`, named by the
//! 64-bit stable hash of its full configuration (see
//! [`crate::engine::Job::cache_key`]). The file stores everything a bench
//! binary consumes from a finished run — total cycles, checksum, per-node
//! counters, network traffic, and (for observed runs) the derived
//! [`MetricsReport`] — with the same hand-written deterministic JSON
//! discipline as `ncp2-obs`: fixed key order, positional arrays for the
//! run's counter rows, and the checksum as a hex string because it is the
//! one value that genuinely uses all 64 bits (the parser's `f64` numbers
//! are exact only below 2^53). The report is embedded exactly as
//! `metrics.json` writes it and read back by the same reader; parsed
//! objects keep their member order, so a restored report serializes to
//! the bytes of the fresh one.
//!
//! The raw observability span log and the protocol event trace are **not**
//! persisted: they are large, and every consumer of an engine run reads
//! either the summary statistics or the derived report. Jobs that need the
//! raw timeline (`trace: true`) are never cached.
//!
//! A file that fails to parse, carries a different format version, or has
//! the wrong node-row arity is treated as a miss and rewritten — never an
//! error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ncp2::core::NodeStats;
use ncp2::net::TrafficStats;
use ncp2::prelude::*;
use ncp2_obs::json::{esc, parse, JVal};
use ncp2_obs::report::report_from_jval;
use ncp2_obs::MetricsReport;

/// Bumped whenever the serialized layout changes; part of every cache key,
/// so stale layouts can never be misread as current ones.
pub const FORMAT_VERSION: u64 = 6;

/// Number of scalar columns in a serialized node row.
const NODE_COLS: usize = 27;

/// Number of scalar columns in the serialized transport-fault row.
const FAULT_COLS: usize = 9 + ncp2::core::RETX_BUCKETS;

/// The file a key maps to inside `dir`.
pub fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.json"))
}

/// Flattens one node's counters in serialization order.
///
/// Exhaustive destructuring on purpose: a new `NodeStats` field fails this
/// build until the cache schema (and [`FORMAT_VERSION`]) are updated.
fn node_row(n: &NodeStats) -> [u64; NODE_COLS] {
    let NodeStats {
        breakdown,
        twin_cycles,
        diff_create_cycles,
        diff_apply_cycles,
        diff_proc_cycles,
        controller_busy,
        faults,
        write_faults,
        lock_acquires,
        barriers,
        invalidations,
        diffs_created,
        diffs_applied,
        diff_bytes_created,
        diff_bytes_applied,
        page_fetches,
        prefetches,
        useless_prefetches,
        prefetch_joins,
        prefetch_hits,
        prefetch_fills,
        au_updates,
        au_combined,
    } = *n;
    [
        breakdown.busy,
        breakdown.data,
        breakdown.synch,
        breakdown.ipc,
        breakdown.other,
        twin_cycles,
        diff_create_cycles,
        diff_apply_cycles,
        diff_proc_cycles,
        controller_busy,
        faults,
        write_faults,
        lock_acquires,
        barriers,
        invalidations,
        diffs_created,
        diffs_applied,
        diff_bytes_created,
        diff_bytes_applied,
        page_fetches,
        prefetches,
        useless_prefetches,
        prefetch_joins,
        prefetch_hits,
        prefetch_fills,
        au_updates,
        au_combined,
    ]
}

/// Inverse of [`node_row`].
fn node_from_row(row: &[u64]) -> Option<NodeStats> {
    if row.len() != NODE_COLS {
        return None;
    }
    Some(NodeStats {
        breakdown: Breakdown {
            busy: row[0],
            data: row[1],
            synch: row[2],
            ipc: row[3],
            other: row[4],
        },
        twin_cycles: row[5],
        diff_create_cycles: row[6],
        diff_apply_cycles: row[7],
        diff_proc_cycles: row[8],
        controller_busy: row[9],
        faults: row[10],
        write_faults: row[11],
        lock_acquires: row[12],
        barriers: row[13],
        invalidations: row[14],
        diffs_created: row[15],
        diffs_applied: row[16],
        diff_bytes_created: row[17],
        diff_bytes_applied: row[18],
        page_fetches: row[19],
        prefetches: row[20],
        useless_prefetches: row[21],
        prefetch_joins: row[22],
        prefetch_hits: row[23],
        prefetch_fills: row[24],
        au_updates: row[25],
        au_combined: row[26],
    })
}

/// Flattens the transport-fault counters in serialization order.
///
/// Exhaustive destructuring, like [`node_row`]: a new `FaultStats` field
/// fails this build until the schema and [`FORMAT_VERSION`] are updated.
fn fault_row(f: &ncp2::core::FaultStats) -> [u64; FAULT_COLS] {
    let ncp2::core::FaultStats {
        frames_sent,
        acks_sent,
        retransmits,
        drops_injected,
        corrupts_injected,
        dups_injected,
        dup_frames_dropped,
        frames_drained,
        prefetch_shed,
        retx_by_attempt,
    } = *f;
    let mut row = [0u64; FAULT_COLS];
    row[..9].copy_from_slice(&[
        frames_sent,
        acks_sent,
        retransmits,
        drops_injected,
        corrupts_injected,
        dups_injected,
        dup_frames_dropped,
        frames_drained,
        prefetch_shed,
    ]);
    row[9..].copy_from_slice(&retx_by_attempt);
    row
}

/// Inverse of [`fault_row`].
fn fault_from_row(row: &[u64]) -> Option<ncp2::core::FaultStats> {
    if row.len() != FAULT_COLS {
        return None;
    }
    let mut retx_by_attempt = [0u64; ncp2::core::RETX_BUCKETS];
    retx_by_attempt.copy_from_slice(&row[9..]);
    Some(ncp2::core::FaultStats {
        frames_sent: row[0],
        acks_sent: row[1],
        retransmits: row[2],
        drops_injected: row[3],
        corrupts_injected: row[4],
        dups_injected: row[5],
        dup_frames_dropped: row[6],
        frames_drained: row[7],
        prefetch_shed: row[8],
        retx_by_attempt,
    })
}

fn u64_list(vals: impl IntoIterator<Item = u64>) -> String {
    vals.into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn u64s_from(v: &JVal) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(|x| x.as_u64()).collect()
}

/// Serializes a finished run (and its optional report) as a cache entry.
pub fn encode(label: &str, result: &RunResult, report: Option<&MetricsReport>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": {FORMAT_VERSION},\n"));
    out.push_str(&format!("  \"label\": \"{}\",\n", esc(label)));
    out.push_str(&format!("  \"protocol\": \"{}\",\n", esc(&result.protocol)));
    out.push_str(&format!("  \"nprocs\": {},\n", result.nprocs));
    out.push_str(&format!("  \"total_cycles\": {},\n", result.total_cycles));
    out.push_str(&format!("  \"checksum\": \"{:#018x}\",\n", result.checksum));
    let TrafficStats {
        messages,
        bytes,
        total_latency,
        total_blocking,
    } = result.net;
    out.push_str(&format!(
        "  \"net\": [{}],\n",
        u64_list([messages, bytes, total_latency, total_blocking])
    ));
    out.push_str("  \"nodes\": [\n");
    for (i, n) in result.nodes.iter().enumerate() {
        let comma = if i + 1 == result.nodes.len() { "" } else { "," };
        out.push_str(&format!("    [{}]{comma}\n", u64_list(node_row(n))));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"fault\": [{}],\n",
        u64_list(fault_row(&result.fault))
    ));
    match report {
        Some(r) => out.push_str(&format!(
            "  \"report\": {}\n",
            r.to_json_indented(2).trim_start()
        )),
        None => out.push_str("  \"report\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Parses a cache entry back into a run result and optional report.
///
/// Returns `None` on any structural mismatch (wrong format version, bad
/// arity, missing field) — the caller treats that as a cache miss.
pub fn decode(text: &str) -> Option<(RunResult, Option<MetricsReport>)> {
    let v = parse(text).ok()?;
    if v.get("format")?.as_u64()? != FORMAT_VERSION {
        return None;
    }
    let checksum_hex = v.get("checksum")?.as_str()?;
    let checksum = u64::from_str_radix(checksum_hex.strip_prefix("0x")?, 16).ok()?;
    let net_vals = u64s_from(v.get("net")?)?;
    let [messages, bytes, total_latency, total_blocking] = net_vals.as_slice() else {
        return None;
    };
    let nodes = v
        .get("nodes")?
        .as_arr()?
        .iter()
        .map(|row| node_from_row(&u64s_from(row)?))
        .collect::<Option<Vec<_>>>()?;
    let fault = fault_from_row(&u64s_from(v.get("fault")?)?)?;
    let report = match v.get("report")? {
        JVal::Null => None,
        r => Some(report_from_jval(r).ok()?),
    };
    let result = RunResult {
        protocol: v.get("protocol")?.as_str()?.to_string(),
        nprocs: v.get("nprocs")?.as_u64()? as usize,
        total_cycles: v.get("total_cycles")?.as_u64()?,
        nodes,
        net: TrafficStats {
            messages: *messages,
            bytes: *bytes,
            total_latency: *total_latency,
            total_blocking: *total_blocking,
        },
        checksum,
        trace: Vec::new(),
        violations: Vec::new(),
        obs: None,
        fault,
        // Time-series jobs are never cached (like trace jobs), so a decoded
        // entry carries no log by construction.
        ts: None,
        // Service counters are not persisted either: every svc consumer
        // reads the derived report (whose svc_* rows round-trip), and the
        // svc_report gate runs --no-cache.
        svc: None,
    };
    Some((result, report))
}

/// Loads the entry for `key`, or `None` on miss/corruption.
pub fn load(dir: &Path, key: u64) -> Option<(RunResult, Option<MetricsReport>)> {
    let text = std::fs::read_to_string(entry_path(dir, key)).ok()?;
    decode(&text)
}

/// Stores an entry for `key`, best-effort (a full disk or missing directory
/// only costs the cache hit, never the run). The write goes through a
/// uniquely named temporary file plus an atomic rename, so a concurrent
/// reader or a second writer of the same key can never observe a torn file.
pub fn store(
    dir: &Path,
    key: u64,
    label: &str,
    result: &RunResult,
    report: Option<&MetricsReport>,
) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{key:016x}.{}.{seq}.tmp", std::process::id()));
    if std::fs::write(&tmp, encode(label, result, report)).is_ok()
        && std::fs::rename(&tmp, entry_path(dir, key)).is_err()
    {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_obs::HistSummary;

    fn sample_result() -> RunResult {
        RunResult {
            protocol: "I+P+D".into(),
            nprocs: 2,
            total_cycles: 123_456,
            nodes: vec![
                NodeStats {
                    breakdown: Breakdown {
                        busy: 1,
                        data: 2,
                        synch: 3,
                        ipc: 4,
                        other: 5,
                    },
                    faults: 7,
                    au_combined: 9,
                    ..NodeStats::default()
                },
                NodeStats::default(),
            ],
            net: TrafficStats {
                messages: 10,
                bytes: 11,
                total_latency: 12,
                total_blocking: 13,
            },
            // Exercises the full 64-bit range the hex encoding exists for.
            checksum: 0xFEDC_BA98_7654_3210,
            trace: Vec::new(),
            violations: Vec::new(),
            obs: None,
            ts: None,
            svc: None,
            fault: ncp2::core::FaultStats {
                frames_sent: 20,
                retransmits: 3,
                drops_injected: 2,
                prefetch_shed: 1,
                retx_by_attempt: [2, 1, 0, 0, 0, 0, 0, 0],
                ..Default::default()
            },
        }
    }

    fn sample_report() -> MetricsReport {
        MetricsReport {
            name: "TSP/I+P+D".into(),
            protocol: "I+P+D".into(),
            nprocs: 2,
            total_cycles: 123_456,
            conservation_ok: true,
            // Non-alphabetical order must survive the round trip.
            categories: vec![
                ("busy".into(), 1),
                ("data".into(), 2),
                ("synch".into(), 3),
                ("ipc".into(), 4),
            ],
            exposed: vec![("busy".into(), 1), ("ipc".into(), 4)],
            counters: vec![("faults".into(), 7)],
            hists: vec![(
                "msg_latency".into(),
                HistSummary {
                    count: 3,
                    p50: 10,
                    p90: 12,
                    p99: 12,
                    max: 12,
                },
            )],
            epochs: vec![vec![1, 2, 3, 4, 5]],
            host: Vec::new(),
        }
    }

    /// `RunResult` deliberately has no `PartialEq` (it carries the raw
    /// trace/obs payloads); compare the fields the cache persists.
    fn assert_same_result(a: &RunResult, b: &RunResult) {
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.nprocs, b.nprocs);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.net, b.net);
        assert_eq!(a.fault, b.fault);
        assert!(b.trace.is_empty() && b.violations.is_empty() && b.obs.is_none());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample_result();
        let rep = sample_report();
        let text = encode("TSP/I+P+D", &r, Some(&rep));
        // The report is embedded in its `metrics.json` encoding.
        assert!(text.contains(rep.to_json_indented(2).trim_start()));
        let (r2, rep2) = decode(&text).expect("decode");
        assert_same_result(&r, &r2);
        assert_eq!(rep2.as_ref(), Some(&rep));
        // The restored report serializes byte-identically via the canonical
        // metrics encoder too (order preserved).
        assert_eq!(rep.to_json(), rep2.unwrap().to_json());
    }

    #[test]
    fn roundtrip_without_report() {
        let r = sample_result();
        let (r2, rep2) = decode(&encode("x", &r, None)).expect("decode");
        assert_same_result(&r, &r2);
        assert!(rep2.is_none());
    }

    #[test]
    fn encode_is_deterministic() {
        let r = sample_result();
        assert_eq!(encode("x", &r, None), encode("x", &r, None));
    }

    #[test]
    fn format_version_mismatch_is_a_miss() {
        let text = encode("x", &sample_result(), None)
            .replace(&format!("\"format\": {FORMAT_VERSION}"), "\"format\": 999");
        assert!(decode(&text).is_none());
    }

    #[test]
    fn garbage_is_a_miss() {
        assert!(decode("not json").is_none());
        assert!(decode("{}").is_none());
    }

    #[test]
    fn truncated_or_damaged_entries_are_misses() {
        let text = encode("TSP/I+P+D", &sample_result(), Some(&sample_report()));
        // Dropping only the trailing newline leaves the whole document.
        let whole = text.trim_end();
        assert!(decode(whole).is_some());
        for cut in (0..whole.len()).filter(|&k| whole.is_char_boundary(k)) {
            assert!(decode(&whole[..cut]).is_none(), "{cut}-byte prefix decoded");
        }
        for bad in ["2.5", "1e999"] {
            for (good, damaged) in [
                ("\"faults\": 7", format!("\"faults\": {bad}")),
                (
                    "\"total_cycles\": 123456",
                    format!("\"total_cycles\": {bad}"),
                ),
            ] {
                let copy = text.replacen(good, &damaged, 1);
                assert_ne!(copy, text, "{good} not in the entry");
                assert!(decode(&copy).is_none(), "{damaged} decoded");
            }
        }
    }
}
