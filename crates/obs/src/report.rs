//! Per-run metrics reports: deterministic JSON plus a human-readable table.
//!
//! A [`MetricsReport`] condenses one [`RunResult`] into the numbers the
//! paper's tables and our regression gate care about: the five-way
//! execution-time breakdown, protocol counters, latency-histogram
//! percentiles and a per-barrier-epoch breakdown timeline. The JSON encoding
//! is hand-written with a fixed key order and integer values only, so the
//! same run always serializes to the same bytes — `ci.sh` and the golden
//! tests rely on that.

use ncp2_core::hist::LogHistogram;
use ncp2_core::span::{CtrlCmd, SpanKind};
use ncp2_core::{RunResult, Violation};
use ncp2_sim::Category;

use crate::json::{esc, JVal};

/// Quantile summary of one latency histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median, cycles.
    pub p50: u64,
    /// 90th percentile, cycles.
    pub p90: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// Exact maximum, cycles.
    pub max: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LogHistogram) -> Self {
        HistSummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// The histogram names every report carries, in serialization order.
/// `fault_stall` includes prefetch-join stalls (a fault blocked on an
/// in-flight prefetch is still a fault stall).
pub const HIST_NAMES: [&str; 7] = [
    "msg_latency",
    "fault_stall",
    "lock_wait",
    "barrier_wait",
    "diff_create",
    "diff_apply",
    "prefetch_to_use",
];

/// Host cost of one engine phase attributed to a run by `--prof` (see
/// `ncp2-prof`): wall time plus same-thread allocations. Pure data here —
/// this crate never reads the wall clock itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostPhase {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Allocations performed on the executing thread.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// One run's metrics, ready for serialization or comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Run label, conventionally `"APP/MODE"` (e.g. `"TSP/I+P+D"`).
    pub name: String,
    /// Protocol label from the run.
    pub protocol: String,
    /// Processors simulated.
    pub nprocs: usize,
    /// End-to-end running time, cycles.
    pub total_cycles: u64,
    /// Whether the span-conservation invariant held (no
    /// [`Violation::SpanConservation`] in the run) and, for an observed
    /// run, the critical-path walk succeeded. Vacuously true when the run
    /// carried no observability log.
    pub conservation_ok: bool,
    /// Aggregate breakdown per category, in [`Category::ALL`] order when
    /// generated from a run. Every list below keeps its order through a
    /// JSON round trip.
    pub categories: Vec<(String, u64)>,
    /// Critical-path exposed cycles per category (the cycles of each kind
    /// the run's longest dependency path actually waits on; sums to
    /// `total_cycles`). Empty when the run carried no observability log.
    pub exposed: Vec<(String, u64)>,
    /// Aggregate protocol counters.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, in [`HIST_NAMES`] order when generated from a
    /// run.
    pub hists: Vec<(String, HistSummary)>,
    /// Per-barrier-epoch breakdown timeline: `epochs[e][c]` is the cycles
    /// all nodes spent in category `Category::ALL[c]` during epoch `e`.
    /// Empty when the run carried no observability log.
    pub epochs: Vec<Vec<u64>>,
    /// Host-side per-phase attribution (`--prof` runs only; empty — and
    /// absent from the JSON — otherwise). Host data is measurement *about*
    /// the run, not part of it: every simulated-time field above is
    /// byte-identical whether or not this is populated, and the bench
    /// cache never stores it.
    pub host: Vec<(String, HostPhase)>,
}

impl MetricsReport {
    /// Builds a report from a finished run. Histograms and the epoch
    /// timeline need the run's observability log
    /// ([`RunResult::obs`]); without it they are empty/zero.
    pub fn from_run(name: &str, r: &RunResult) -> MetricsReport {
        let agg = r.aggregate();
        let categories = Category::ALL
            .iter()
            .map(|&c| (c.label().to_string(), agg.get(c)))
            .collect();

        let mut counters: Vec<(String, u64)> = Vec::new();
        let sum = |f: &dyn Fn(&ncp2_core::NodeStats) -> u64| -> u64 { r.nodes.iter().map(f).sum() };
        counters.push(("faults".into(), sum(&|n| n.faults)));
        counters.push(("write_faults".into(), sum(&|n| n.write_faults)));
        counters.push(("lock_acquires".into(), sum(&|n| n.lock_acquires)));
        counters.push(("barriers".into(), sum(&|n| n.barriers)));
        counters.push(("invalidations".into(), sum(&|n| n.invalidations)));
        counters.push(("diffs_created".into(), sum(&|n| n.diffs_created)));
        counters.push(("diffs_applied".into(), sum(&|n| n.diffs_applied)));
        counters.push(("page_fetches".into(), sum(&|n| n.page_fetches)));
        counters.push(("prefetches".into(), sum(&|n| n.prefetches)));
        counters.push(("useless_prefetches".into(), sum(&|n| n.useless_prefetches)));
        counters.push(("prefetch_joins".into(), sum(&|n| n.prefetch_joins)));
        counters.push(("prefetch_hits".into(), sum(&|n| n.prefetch_hits)));
        counters.push(("au_updates".into(), sum(&|n| n.au_updates)));
        counters.push(("au_combined".into(), sum(&|n| n.au_combined)));
        counters.push(("messages".into(), r.net.messages));
        counters.push(("bytes".into(), r.net.bytes));

        let mut hs: Vec<LogHistogram> =
            (0..HIST_NAMES.len()).map(|_| LogHistogram::new()).collect();
        let mut epochs: Vec<Vec<u64>> = Vec::new();
        // The run's sinks already checked span conservation and filed any
        // failure as a violation; the report reads that verdict.
        let mut conservation_ok = !r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SpanConservation { .. }));
        let mut exposed: Vec<(String, u64)> = Vec::new();
        if let Some(log) = &r.obs {
            // Exposed cycles come from the critical-path walk over the
            // dependency graph; a build/walk failure is an invariant
            // violation and flips the conservation flag.
            match crate::graph::ExecGraph::build(log, r.nprocs, r.total_cycles)
                .and_then(|g| crate::critpath::critical_path(&g))
            {
                Ok(cp) => {
                    exposed = cp
                        .exposed
                        .iter()
                        .map(|&(c, v)| (c.label().to_string(), v))
                        .collect();
                }
                Err(_) => conservation_ok = false,
            }
            for f in &log.flights {
                hs[0].observe(f.arrival - f.inject);
            }
            for s in &log.spans {
                let dur = s.end - s.start;
                match s.kind {
                    SpanKind::FaultStall | SpanKind::PrefetchStall => hs[1].observe(dur),
                    SpanKind::LockStall => hs[2].observe(dur),
                    SpanKind::BarrierStall => hs[3].observe(dur),
                    SpanKind::DiffCreate | SpanKind::Twin => hs[4].observe(dur),
                    SpanKind::DiffApply => hs[5].observe(dur),
                    _ => {}
                }
                let ci = Category::ALL.iter().position(|&c| c == s.cat).unwrap_or(0);
                while epochs.len() <= s.epoch as usize {
                    epochs.push(vec![0; Category::ALL.len()]);
                }
                epochs[s.epoch as usize][ci] += dur;
            }
            for e in &log.engine {
                match e.cmd {
                    CtrlCmd::DiffCreate | CtrlCmd::Twin => hs[4].observe(e.end - e.start),
                    CtrlCmd::DiffApply => hs[5].observe(e.end - e.start),
                    CtrlCmd::ListWalk | CtrlCmd::Send => {}
                }
            }
            for &(_, d) in &log.prefetch_use {
                hs[6].observe(d);
            }
        }
        let mut hists: Vec<(String, HistSummary)> = HIST_NAMES
            .iter()
            .zip(&hs)
            .map(|(n, h)| (n.to_string(), HistSummary::of(h)))
            .collect();
        // Service workloads: response-time distribution plus request
        // counters. These rows only exist when the run issued svc markers,
        // so the six closed-loop kernels keep byte-identical reports.
        if let Some(svc) = &r.svc {
            counters.push(("svc_completed".into(), svc.completed()));
            counters.push(("svc_gets".into(), svc.gets));
            counters.push(("svc_puts".into(), svc.puts));
            counters.push(("svc_sessions".into(), svc.sessions));
            counters.push(("svc_queue_peak".into(), svc.queue_peak));
            hists.push(("svc_response".into(), HistSummary::of(&svc.response)));
        }

        MetricsReport {
            name: name.to_string(),
            protocol: r.protocol.clone(),
            nprocs: r.nprocs,
            total_cycles: r.total_cycles,
            conservation_ok,
            categories,
            exposed,
            counters,
            hists,
            epochs,
            host: Vec::new(),
        }
    }

    /// Looks a category total up by label.
    pub fn category(&self, label: &str) -> Option<u64> {
        self.categories
            .iter()
            .find(|(n, _)| n == label)
            .map(|&(_, v)| v)
    }

    /// Looks a histogram summary up by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Serializes to deterministic JSON: fixed key order, integers only,
    /// trailing newline. Byte-identical across repeated runs of the same
    /// configuration.
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_indented(0);
        s.push('\n');
        s
    }

    /// Serializes with every line prefixed by `base` spaces (no trailing
    /// newline) so reports can be embedded in bench files.
    pub fn to_json_indented(&self, base: usize) -> String {
        let p = " ".repeat(base);
        let mut out = String::new();
        out.push_str(&format!("{p}{{\n"));
        out.push_str(&format!("{p}  \"name\": \"{}\",\n", esc(&self.name)));
        out.push_str(&format!(
            "{p}  \"protocol\": \"{}\",\n",
            esc(&self.protocol)
        ));
        out.push_str(&format!("{p}  \"nprocs\": {},\n", self.nprocs));
        out.push_str(&format!("{p}  \"total_cycles\": {},\n", self.total_cycles));
        out.push_str(&format!(
            "{p}  \"conservation_ok\": {},\n",
            self.conservation_ok
        ));
        let pairs = |items: &[(String, u64)]| -> String {
            items
                .iter()
                .map(|(n, v)| format!("\"{}\": {v}", esc(n)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "{p}  \"categories\": {{{}}},\n",
            pairs(&self.categories)
        ));
        out.push_str(&format!(
            "{p}  \"exposed\": {{{}}},\n",
            pairs(&self.exposed)
        ));
        out.push_str(&format!(
            "{p}  \"counters\": {{{}}},\n",
            pairs(&self.counters)
        ));
        out.push_str(&format!("{p}  \"hists\": {{\n"));
        for (i, (n, h)) in self.hists.iter().enumerate() {
            let comma = if i + 1 == self.hists.len() { "" } else { "," };
            out.push_str(&format!(
                "{p}    \"{}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"max\": {}}}{comma}\n",
                esc(n),
                h.count,
                h.p50,
                h.p90,
                h.p99,
                h.max
            ));
        }
        out.push_str(&format!("{p}  }},\n"));
        out.push_str(&format!("{p}  \"epochs\": [\n"));
        for (i, e) in self.epochs.iter().enumerate() {
            let comma = if i + 1 == self.epochs.len() { "" } else { "," };
            let row = e
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("{p}    [{row}]{comma}\n"));
        }
        if self.host.is_empty() {
            out.push_str(&format!("{p}  ]\n"));
        } else {
            out.push_str(&format!("{p}  ],\n"));
            let phases = self
                .host
                .iter()
                .map(|(n, h)| {
                    format!(
                        "\"{}\": {{\"wall_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                        esc(n),
                        h.wall_ns,
                        h.allocs,
                        h.alloc_bytes
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("{p}  \"host\": {{{phases}}}\n"));
        }
        out.push_str(&format!("{p}}}"));
        out
    }

    /// Renders the report as an aligned text table for terminal viewing.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}  protocol={}  nprocs={}  total={} cycles  conservation={}\n",
            self.name,
            self.protocol,
            self.nprocs,
            self.total_cycles,
            if self.conservation_ok { "ok" } else { "FAILED" }
        ));
        let cat_total: u64 = self.categories.iter().map(|&(_, v)| v).sum();
        out.push_str(&format!(
            "\n  {:<18} {:>14} {:>7}\n",
            "category", "cycles", "%"
        ));
        for (n, v) in &self.categories {
            let pct = if cat_total == 0 {
                0.0
            } else {
                100.0 * *v as f64 / cat_total as f64
            };
            out.push_str(&format!("  {n:<18} {v:>14} {pct:>7.1}\n"));
        }
        if !self.exposed.is_empty() {
            let exp_total: u64 = self.exposed.iter().map(|&(_, v)| v).sum();
            out.push_str(&format!(
                "\n  {:<18} {:>14} {:>7}\n",
                "exposed (critpath)", "cycles", "%"
            ));
            for (n, v) in &self.exposed {
                let pct = if exp_total == 0 {
                    0.0
                } else {
                    100.0 * *v as f64 / exp_total as f64
                };
                out.push_str(&format!("  {n:<18} {v:>14} {pct:>7.1}\n"));
            }
        }
        out.push_str(&format!("\n  {:<18} {:>14}\n", "counter", "value"));
        for (n, v) in &self.counters {
            out.push_str(&format!("  {n:<18} {v:>14}\n"));
        }
        out.push_str(&format!(
            "\n  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
            "histogram", "count", "p50", "p90", "p99", "max"
        ));
        for (n, h) in &self.hists {
            out.push_str(&format!(
                "  {n:<18} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
                h.count, h.p50, h.p90, h.p99, h.max
            ));
        }
        if !self.host.is_empty() {
            out.push_str(&format!(
                "\n  {:<18} {:>14} {:>10} {:>12}\n",
                "host phase", "wall_ns", "allocs", "alloc_bytes"
            ));
            for (n, h) in &self.host {
                out.push_str(&format!(
                    "  {n:<18} {:>14} {:>10} {:>12}\n",
                    h.wall_ns, h.allocs, h.alloc_bytes
                ));
            }
        }
        if !self.epochs.is_empty() {
            out.push_str(&format!("\n  {:<8}", "epoch"));
            for c in Category::ALL {
                out.push_str(&format!(" {:>12}", c.label()));
            }
            out.push('\n');
            for (i, e) in self.epochs.iter().enumerate() {
                out.push_str(&format!("  {i:<8}"));
                for v in e {
                    out.push_str(&format!(" {v:>12}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Reconstructs a report from a parsed JSON object written by
/// [`MetricsReport::to_json_indented`]. Every name/value list comes back in
/// the order it was written, so the result serializes to the same bytes.
pub fn report_from_jval(v: &JVal) -> Result<MetricsReport, String> {
    let str_field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field '{k}'"))
    };
    let num_field = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("missing numeric field '{k}'"))
    };
    let pairs_field = |k: &str| -> Result<Vec<(String, u64)>, String> {
        let obj = v
            .get(k)
            .and_then(|x| x.as_obj())
            .ok_or_else(|| format!("missing object field '{k}'"))?;
        obj.iter()
            .map(|(n, x)| {
                x.as_u64()
                    .map(|u| (n.clone(), u))
                    .ok_or_else(|| format!("non-numeric entry '{n}' in '{k}'"))
            })
            .collect()
    };
    let hists_obj = v
        .get("hists")
        .and_then(|x| x.as_obj())
        .ok_or("missing object field 'hists'")?;
    let mut hists = Vec::new();
    for (n, h) in hists_obj {
        let f = |k: &str| -> Result<u64, String> {
            h.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("hist '{n}' missing '{k}'"))
        };
        hists.push((
            n.clone(),
            HistSummary {
                count: f("count")?,
                p50: f("p50")?,
                p90: f("p90")?,
                p99: f("p99")?,
                max: f("max")?,
            },
        ));
    }
    let epochs = v
        .get("epochs")
        .and_then(|x| x.as_arr())
        .ok_or("missing array field 'epochs'")?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or("epoch row is not an array")?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| "non-numeric epoch cell".to_string())
                })
                .collect::<Result<Vec<u64>, String>>()
        })
        .collect::<Result<Vec<Vec<u64>>, String>>()?;
    // Absent unless the run was profiled (`--prof`).
    let mut host = Vec::new();
    if let Some(obj) = v.get("host").and_then(|x| x.as_obj()) {
        for (n, h) in obj {
            let f = |k: &str| -> Result<u64, String> {
                h.get(k)
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("host phase '{n}' missing '{k}'"))
            };
            host.push((
                n.clone(),
                HostPhase {
                    wall_ns: f("wall_ns")?,
                    allocs: f("allocs")?,
                    alloc_bytes: f("alloc_bytes")?,
                },
            ));
        }
    }
    Ok(MetricsReport {
        name: str_field("name")?,
        protocol: str_field("protocol")?,
        nprocs: num_field("nprocs")? as usize,
        total_cycles: num_field("total_cycles")?,
        conservation_ok: v
            .get("conservation_ok")
            .and_then(|x| x.as_bool())
            .ok_or("missing boolean field 'conservation_ok'")?,
        categories: pairs_field("categories")?,
        // Absent in pre-critical-path bench files; treat as "no graph".
        exposed: if v.get("exposed").is_some() {
            pairs_field("exposed")?
        } else {
            Vec::new()
        },
        counters: pairs_field("counters")?,
        hists,
        epochs,
        host,
    })
}

/// Parses a `metrics.json` document produced by [`MetricsReport::to_json`].
pub fn parse_metrics(text: &str) -> Result<MetricsReport, String> {
    report_from_jval(&crate::json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        MetricsReport {
            name: "TSP/Base".into(),
            protocol: "Base".into(),
            nprocs: 4,
            total_cycles: 123_456,
            conservation_ok: true,
            categories: vec![("busy".into(), 100), ("data".into(), 23)],
            exposed: vec![("busy".into(), 90), ("data".into(), 33)],
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
            epochs: vec![vec![1, 2, 3, 4, 5], vec![6, 7, 8, 9, 10]],
            host: Vec::new(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_values() {
        let r = sample();
        let parsed = parse_metrics(&r.to_json()).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn host_attribution_roundtrips_and_is_absent_when_empty() {
        let plain = sample();
        assert!(
            !plain.to_json().contains("\"host\""),
            "un-profiled reports must not mention host data"
        );
        let mut profiled = sample();
        profiled.host = vec![
            (
                "cache_io".into(),
                HostPhase {
                    wall_ns: 1200,
                    allocs: 3,
                    alloc_bytes: 256,
                },
            ),
            (
                "sim".into(),
                HostPhase {
                    wall_ns: 987_654,
                    allocs: 4210,
                    alloc_bytes: 1 << 20,
                },
            ),
        ];
        let text = profiled.to_json();
        assert!(text.contains("\"host\""));
        let parsed = parse_metrics(&text).expect("parse");
        assert_eq!(parsed, profiled);
        // The simulated-time fields are untouched by host attribution.
        let mut stripped = parsed;
        stripped.host.clear();
        assert_eq!(stripped, plain);
        assert!(profiled.render_table().contains("host phase"));
    }

    #[test]
    fn profiled_report_keeps_non_alphabetical_order() {
        let hist = |count| HistSummary {
            count,
            p50: 1,
            p90: 2,
            p99: 3,
            max: 4,
        };
        let phase = |wall_ns| HostPhase {
            wall_ns,
            allocs: 5,
            alloc_bytes: 64,
        };
        let mut r = sample();
        r.categories = Category::ALL
            .iter()
            .zip(1..)
            .map(|(c, v)| (c.label().to_string(), v))
            .collect();
        r.counters = vec![
            ("write_faults".into(), 3),
            ("faults".into(), 7),
            ("bytes".into(), 9),
        ];
        r.hists = vec![
            ("msg_latency".into(), hist(2)),
            ("fault_stall".into(), hist(1)),
        ];
        r.host = vec![("sim".into(), phase(900)), ("cache_io".into(), phase(40))];
        let text = r.to_json();
        let parsed = parse_metrics(&text).expect("parse");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn table_mentions_every_section() {
        let t = sample().render_table();
        assert!(t.contains("TSP/Base"));
        assert!(t.contains("busy"));
        assert!(t.contains("exposed"));
        assert!(t.contains("faults"));
        assert!(t.contains("msg_latency"));
        assert!(t.contains("epoch"));
    }
}
