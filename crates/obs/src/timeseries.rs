//! Timeline reports: deterministic JSON/CSV serialization of a run's
//! windowed time-series log ([`ncp2_core::TsLog`]).
//!
//! Follows the same discipline as [`crate::report`]: hand-written JSON with
//! a fixed key order and integer values only, so the same run always
//! serializes to the same bytes regardless of worker count or host. The CSV
//! view carries the per-window counter/gauge matrix (one row per window)
//! for spreadsheet work; hot-spot tables and per-link series live in the
//! JSON only.

use ncp2_core::{TsCounter, TsGauge, TsLog};

use crate::hotspot::{top_locks, top_pages};
use crate::json::esc;

/// One run's time series plus the metadata needed to render it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Run label, conventionally `"APP/MODE"`.
    pub name: String,
    /// Processors simulated.
    pub nprocs: usize,
    /// End-to-end running time, cycles.
    pub total_cycles: u64,
    /// Hot-spot table depth (0 = unlimited).
    pub top_k: usize,
    /// The windowed log itself.
    pub log: TsLog,
}

impl TimelineReport {
    /// Builds a report from a finished run; `None` when the run recorded no
    /// time series (`Job::timeseries` unset).
    pub fn from_run(name: &str, r: &ncp2_core::RunResult, top_k: usize) -> Option<TimelineReport> {
        Some(TimelineReport {
            name: name.to_string(),
            nprocs: r.nprocs,
            total_cycles: r.total_cycles,
            top_k,
            log: r.ts.clone()?,
        })
    }

    /// Serializes to deterministic JSON: fixed key order, integers only,
    /// trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_indented(0);
        s.push('\n');
        s
    }

    /// Serializes with every line prefixed by `base` spaces (no trailing
    /// newline) so timeline reports can be embedded in larger documents.
    pub fn to_json_indented(&self, base: usize) -> String {
        let p = " ".repeat(base);
        let series = |vals: &[u64]| -> String {
            vals.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::new();
        out.push_str(&format!("{p}{{\n"));
        out.push_str(&format!("{p}  \"name\": \"{}\",\n", esc(&self.name)));
        out.push_str(&format!("{p}  \"nprocs\": {},\n", self.nprocs));
        out.push_str(&format!("{p}  \"total_cycles\": {},\n", self.total_cycles));
        out.push_str(&format!("{p}  \"window_width\": {},\n", self.log.width));
        out.push_str(&format!("{p}  \"windows\": {},\n", self.log.windows.len()));
        out.push_str(&format!("{p}  \"counters\": {{\n"));
        for (i, c) in TsCounter::ALL.iter().enumerate() {
            let comma = if i + 1 == TsCounter::COUNT { "" } else { "," };
            out.push_str(&format!(
                "{p}    \"{}\": [{}]{comma}\n",
                c.label(),
                series(&self.log.counter_series(*c))
            ));
        }
        out.push_str(&format!("{p}  }},\n"));
        out.push_str(&format!("{p}  \"gauges\": {{\n"));
        for (i, g) in TsGauge::ALL.iter().enumerate() {
            let comma = if i + 1 == TsGauge::COUNT { "" } else { "," };
            out.push_str(&format!(
                "{p}    \"{}\": [{}]{comma}\n",
                g.label(),
                series(&self.log.gauge_series(*g))
            ));
        }
        out.push_str(&format!("{p}  }},\n"));
        out.push_str(&format!("{p}  \"occupancy\": [\n"));
        for (node, occ) in self.log.occupancy.iter().enumerate() {
            let comma = if node + 1 == self.log.occupancy.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("{p}    [{}]{comma}\n", series(occ)));
        }
        out.push_str(&format!("{p}  ],\n"));
        let links = |out: &mut String,
                     key: &str,
                     map: &std::collections::BTreeMap<(usize, usize), Vec<u64>>,
                     trailing: &str| {
            out.push_str(&format!("{p}  \"{key}\": [\n"));
            for (i, ((src, dst), vals)) in map.iter().enumerate() {
                let comma = if i + 1 == map.len() { "" } else { "," };
                out.push_str(&format!(
                    "{p}    {{\"src\": {src}, \"dst\": {dst}, \"series\": [{}]}}{comma}\n",
                    series(vals)
                ));
            }
            out.push_str(&format!("{p}  ]{trailing}\n"));
        };
        links(
            &mut out,
            "link_retransmits",
            &self.log.link_retransmits,
            ",",
        );
        links(&mut out, "link_inflight", &self.log.link_inflight, ",");
        out.push_str(&format!("{p}  \"hot_pages\": [\n"));
        let pages = top_pages(&self.log, self.top_k);
        for (i, (page, h)) in pages.iter().enumerate() {
            let comma = if i + 1 == pages.len() { "" } else { "," };
            out.push_str(&format!(
                "{p}    {{\"page\": {page}, \"transfers\": {}, \"diff_bytes\": {}, \
                 \"invalidations\": {}}}{comma}\n",
                h.transfers, h.diff_bytes, h.invalidations
            ));
        }
        out.push_str(&format!("{p}  ],\n"));
        out.push_str(&format!("{p}  \"hot_locks\": [\n"));
        let locks = top_locks(&self.log, self.top_k);
        for (i, (lock, h)) in locks.iter().enumerate() {
            let comma = if i + 1 == locks.len() { "" } else { "," };
            out.push_str(&format!(
                "{p}    {{\"lock\": {lock}, \"wait_cycles\": {}, \"acquires\": {}, \
                 \"owner_migrations\": {}}}{comma}\n",
                h.wait_cycles, h.acquires, h.owner_migrations
            ));
        }
        out.push_str(&format!("{p}  ]\n"));
        out.push_str(&format!("{p}}}"));
        out
    }

    /// Serializes the per-window counter/gauge matrix as CSV: a header row,
    /// then one row per window with its half-open cycle range.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window,start,end");
        for c in TsCounter::ALL {
            out.push(',');
            out.push_str(c.label());
        }
        for g in TsGauge::ALL {
            out.push(',');
            out.push_str(g.label());
        }
        out.push('\n');
        for (w, row) in self.log.windows.iter().enumerate() {
            let start = w as u64 * self.log.width;
            out.push_str(&format!("{w},{start},{}", start + self.log.width));
            for v in row.counters {
                out.push_str(&format!(",{v}"));
            }
            for v in row.gauges {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use ncp2_core::{ProtocolEvent, TsRecorder};

    fn sample() -> TimelineReport {
        let mut rec = TsRecorder::new(2, 100);
        rec.count(TsCounter::PageFetches, 10, 2);
        rec.count(TsCounter::Messages, 150, 7);
        rec.gauge(TsGauge::QueueDepth, 120, 5);
        rec.span(1, 50, 180);
        rec.note(
            110,
            0,
            &ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 0,
                attempt: 1,
            },
        );
        rec.flight(0, 1, 10, true);
        rec.page(42, 3, 128, 1);
        rec.page(7, 1, 4096, 0);
        rec.lock(2, 900, 4, 2);
        TimelineReport {
            name: "TSP/I+P+D".into(),
            nprocs: 2,
            total_cycles: 300,
            top_k: 16,
            log: rec.into_log(300),
        }
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let r = sample();
        assert_eq!(r.to_json(), r.to_json());
        let v = parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("window_width").and_then(|x| x.as_u64()), Some(100));
        assert_eq!(v.get("windows").and_then(|x| x.as_u64()), Some(3));
        let fetches = v
            .get("counters")
            .and_then(|c| c.get("page_fetches"))
            .and_then(|x| x.as_arr())
            .expect("page_fetches series");
        assert_eq!(fetches.len(), 3);
        assert_eq!(fetches[0].as_u64(), Some(2));
        // Hot pages are sorted most-transferred first.
        let pages = v
            .get("hot_pages")
            .and_then(|x| x.as_arr())
            .expect("hot_pages");
        assert_eq!(pages[0].get("page").and_then(|x| x.as_u64()), Some(42));
    }

    #[test]
    fn csv_has_one_row_per_window_and_conserves_counts() {
        let r = sample();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.log.windows.len());
        assert!(lines[0].starts_with("window,start,end,page_fetches,"));
        assert!(lines[1].starts_with("0,0,100,"));
        // Column 3 (page_fetches) sums to the counter total.
        let total: u64 = lines[1..]
            .iter()
            .map(|l| l.split(',').nth(3).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, r.log.counter_total(TsCounter::PageFetches));
    }
}
