//! Chrome/Perfetto `trace_event` export.
//!
//! Renders one run's observability log as a JSON document loadable in
//! `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! * one *process* per simulated node, with a `cpu` thread for the
//!   computation processor's conserved spans and `ctrl.core` / `ctrl.io`
//!   threads for protocol-controller engine occupancy;
//! * one `network` process with one thread per directed link pair actually
//!   used, carrying message flights (duration = injection to arrival, with
//!   queueing delay in the args);
//! * flow arrows (`ph` `"s"`/`"f"` pairs) over the causal dependency
//!   edges — message send→receive, lock release→acquire and barrier
//!   last-arrival→departure — so the UI draws the cross-processor causal
//!   chains the critical-path analyzer walks;
//! * instant events from the protocol trace (faults, lock grants, barrier
//!   releases, ...) when [`SysParams::trace`](ncp2_sim::SysParams) was set;
//! * counter tracks (`ph` `"C"`): one `cycles_by_category` sample per node
//!   from the end-of-run breakdown (so every trace gets the counter lane),
//!   and — when the run recorded a windowed time series
//!   ([`RunResult::ts`]) — one `ts.*` track per counter/gauge, a
//!   per-node controller-occupancy-percent track, and per-link
//!   retransmit/in-flight tracks, each sampled once per window.
//!
//! Timestamps are simulated cycles written as integer `ts`/`dur`
//! microsecond fields — the absolute unit is meaningless, relative layout
//! is what matters. Emission order is a deterministic function of the log
//! (no hash maps), so the export is byte-identical across repeated runs.

use std::fmt::Write as _;

use ncp2_core::span::EdgeKind;
use ncp2_core::trace::TraceKind;
use ncp2_core::{Engine, RunResult};

use crate::json::esc;

/// Synthetic pid for the network "process".
const NET_PID: usize = 1000;

/// Thread ids within a node's process.
const TID_CPU: usize = 0;
const TID_CTRL_CORE: usize = 1;
const TID_CTRL_IO: usize = 2;

fn meta(out: &mut String, pid: usize, tid: Option<usize>, name: &str) {
    let field = if tid.is_some() {
        "thread_name"
    } else {
        "process_name"
    };
    let tid = tid.unwrap_or(0);
    let _ = writeln!(
        out,
        "{{\"ph\": \"M\", \"name\": \"{field}\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": \"{}\"}}}},",
        esc(name)
    );
}

fn instant_name(kind: &TraceKind) -> String {
    match kind {
        TraceKind::MsgSent { .. } => "msg_sent".into(),
        TraceKind::Fault { page } => format!("fault p{page}"),
        TraceKind::PageFetched { page } => format!("page_fetched p{page}"),
        TraceKind::DiffCreated { page, .. } => format!("diff_created p{page}"),
        TraceKind::DiffApplied { page, .. } => format!("diff_applied p{page}"),
        TraceKind::LockAcquired { lock } => format!("lock_acquired l{lock}"),
        TraceKind::BarrierReleased => "barrier_released".into(),
        TraceKind::PrefetchIssued { page } => format!("prefetch_issued p{page}"),
        TraceKind::PrefetchCompleted { page } => format!("prefetch_completed p{page}"),
        TraceKind::ControllerCommand { cmd } => format!("ctrl_{}", cmd.label()),
        TraceKind::RetransmitTimeout { dst, seq } => format!("retransmit_timeout d{dst} s{seq}"),
        TraceKind::Retransmit { dst, seq, attempt } => {
            format!("retransmit d{dst} s{seq} a{attempt}")
        }
        TraceKind::DuplicateDropped { src, seq } => format!("duplicate_dropped s{src} q{seq}"),
        TraceKind::PrefetchShed { page } => format!("prefetch_shed p{page}"),
        TraceKind::SvcDequeue { depth } => format!("svc_dequeue d{depth}"),
        TraceKind::SvcReply { class, response } => {
            format!("svc_reply_{} r{response}", class.label())
        }
    }
}

/// Renders `r` as a Chrome `trace_event` JSON document.
pub fn perfetto_json(r: &RunResult) -> String {
    let n = r.nprocs;
    let mut out = String::from("{\"traceEvents\": [\n");

    // Which directed links actually carried a flight (indexed src * n + dst).
    let mut link_used = vec![false; n * n];
    if let Some(log) = &r.obs {
        for f in &log.flights {
            if f.src < n && f.dst < n {
                link_used[f.src * n + f.dst] = true;
            }
        }
    }

    // Process/thread naming metadata first, in pid/tid order.
    for pid in 0..n {
        meta(&mut out, pid, None, &format!("P{pid}"));
        meta(&mut out, pid, Some(TID_CPU), "cpu");
        meta(&mut out, pid, Some(TID_CTRL_CORE), "ctrl.core");
        meta(&mut out, pid, Some(TID_CTRL_IO), "ctrl.io");
    }
    meta(&mut out, NET_PID, None, "network");
    for src in 0..n {
        for dst in 0..n {
            if link_used[src * n + dst] {
                meta(
                    &mut out,
                    NET_PID,
                    Some(src * n + dst),
                    &format!("link {src}->{dst}"),
                );
            }
        }
    }

    if let Some(log) = &r.obs {
        for s in &log.spans {
            let _ = writeln!(
                out,
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"pid\": {}, \
                 \"tid\": {TID_CPU}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"epoch\": {}}}}},",
                s.kind.label(),
                s.cat.label(),
                s.node,
                s.start,
                s.end - s.start,
                s.epoch
            );
        }
        for e in &log.engine {
            let tid = match e.engine {
                Engine::CtrlCore => TID_CTRL_CORE,
                Engine::CtrlIo => TID_CTRL_IO,
            };
            let _ = writeln!(
                out,
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"controller\", \"pid\": {}, \
                 \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \"args\": {{}}}},",
                e.cmd.label(),
                e.node,
                e.start,
                e.end - e.start
            );
        }
        for f in &log.flights {
            let _ = writeln!(
                out,
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"net\", \"pid\": {NET_PID}, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"bytes\": {}, \
                 \"queued\": {}, \"prefetch\": {}}}}},",
                f.kind,
                f.src * n + f.dst,
                f.inject,
                f.arrival - f.inject,
                f.bytes,
                f.start - f.inject,
                f.prefetch
            );
        }
        // Flow arrows over the cross-processor dependency edges. The edge
        // index is the flow id — unique and stable, since the edge log is a
        // deterministic function of the run. Binding ("bp": "e") attaches
        // each endpoint to the slice enclosing its timestamp on the cpu
        // track.
        for (i, e) in log.edges.iter().enumerate() {
            let draw = matches!(
                e.kind,
                EdgeKind::Msg(_) | EdgeKind::LockGrant | EdgeKind::BarrierRelease
            );
            if !draw {
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"ph\": \"s\", \"id\": {i}, \"name\": \"{}\", \"cat\": \"dep\", \
                 \"pid\": {}, \"tid\": {TID_CPU}, \"ts\": {}}},",
                e.kind.label(),
                e.src_node,
                e.src_time
            );
            let _ = writeln!(
                out,
                "{{\"ph\": \"f\", \"bp\": \"e\", \"id\": {i}, \"name\": \"{}\", \
                 \"cat\": \"dep\", \"pid\": {}, \"tid\": {TID_CPU}, \"ts\": {}}},",
                e.kind.label(),
                e.dst_node,
                e.dst_time
            );
        }
    }

    // Counter lane from the end-of-run per-category totals: one sample per
    // node at ts 0, so the lane exists for every export, time series or not.
    for (pid, node) in r.nodes.iter().enumerate() {
        let b = node.breakdown;
        let _ = writeln!(
            out,
            "{{\"ph\": \"C\", \"name\": \"cycles_by_category\", \"pid\": {pid}, \"tid\": 0, \
             \"ts\": 0, \"args\": {{\"busy\": {}, \"data\": {}, \"synch\": {}, \"ipc\": {}, \
             \"other\": {}}}}},",
            b.busy, b.data, b.synch, b.ipc, b.other
        );
    }

    // Windowed time-series counter tracks, one sample per window at the
    // window's start cycle. Series order is fixed (counters, gauges,
    // occupancy, links) so the export stays byte-deterministic.
    if let Some(ts) = &r.ts {
        let window_width = ts.width.max(1);
        let sample = |out: &mut String, name: &str, pid: usize, w: usize, v: u64| {
            let _ = writeln!(
                out,
                "{{\"ph\": \"C\", \"name\": \"{}\", \"pid\": {pid}, \"tid\": 0, \"ts\": {}, \
                 \"args\": {{\"value\": {v}}}}},",
                esc(name),
                w as u64 * window_width
            );
        };
        for c in ncp2_core::TsCounter::ALL {
            for (w, v) in ts.counter_series(c).into_iter().enumerate() {
                sample(&mut out, &format!("ts.{}", c.label()), NET_PID, w, v);
            }
        }
        for g in ncp2_core::TsGauge::ALL {
            for (w, v) in ts.gauge_series(g).into_iter().enumerate() {
                sample(&mut out, &format!("ts.{}", g.label()), NET_PID, w, v);
            }
        }
        for (node, series) in ts.occupancy.iter().enumerate() {
            for (w, &busy) in series.iter().enumerate() {
                // Flooring rounds the percentage down by at most 1 point; a
                // counter track is a visual aid, not a metrics source.
                // lint: allow(window-boundary-div) -- display-only rounding, exactness lives in TsLog
                let pct = 100 * busy / window_width;
                sample(&mut out, "ctrl_occupancy_pct", node, w, pct);
            }
        }
        for ((src, dst), series) in &ts.link_retransmits {
            for (w, &v) in series.iter().enumerate() {
                sample(&mut out, &format!("ts.retx {src}->{dst}"), NET_PID, w, v);
            }
        }
        for ((src, dst), series) in &ts.link_inflight {
            for (w, &v) in series.iter().enumerate() {
                sample(
                    &mut out,
                    &format!("ts.inflight {src}->{dst}"),
                    NET_PID,
                    w,
                    v,
                );
            }
        }
    }

    for (i, e) in r.trace.iter().enumerate() {
        let comma = if i + 1 == r.trace.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"ph\": \"i\", \"name\": \"{}\", \"cat\": \"protocol\", \"pid\": {}, \
             \"tid\": {TID_CPU}, \"ts\": {}, \"s\": \"t\"}}{comma}",
            esc(&instant_name(&e.kind)),
            e.node,
            e.time
        );
    }
    // The metadata block above always ends with a comma; when there were no
    // trace instants, close the array on a dummy-free footing by trimming it.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    fn empty_run() -> RunResult {
        RunResult {
            protocol: "Base".into(),
            nprocs: 2,
            total_cycles: 10,
            nodes: vec![Default::default(); 2],
            net: Default::default(),
            checksum: 0,
            trace: Vec::new(),
            violations: Vec::new(),
            obs: None,
            ts: None,
            svc: None,
            fault: Default::default(),
        }
    }

    #[test]
    fn export_without_obs_is_valid_json() {
        let doc = perfetto_json(&empty_run());
        let v = parse(&doc).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // 2 nodes x (process + 3 threads) + network process = 9 metadata
        // rows, plus one cycles_by_category counter sample per node.
        assert_eq!(events.len(), 11);
    }

    #[test]
    fn instants_render_from_the_protocol_trace() {
        let mut r = empty_run();
        r.trace.push(ncp2_core::trace::TraceEvent {
            time: 7,
            node: 1,
            kind: TraceKind::Fault { page: 3 },
        });
        let doc = perfetto_json(&r);
        let v = parse(&doc).expect("valid JSON");
        assert!(doc.contains("fault p3"));
        assert_eq!(
            v.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(|a| a.len()),
            Some(12)
        );
    }

    #[test]
    fn category_counter_lane_reflects_the_breakdown() {
        let mut r = empty_run();
        r.nodes[1].breakdown.busy = 42;
        let doc = perfetto_json(&r);
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let counter = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(1)
            })
            .expect("counter sample for node 1");
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("busy"))
                .and_then(|b| b.as_u64()),
            Some(42)
        );
    }

    #[test]
    fn time_series_counter_tracks_sample_every_window() {
        use ncp2_core::{ProtocolEvent, TsCounter, TsRecorder};
        let mut rec = TsRecorder::new(2, 100);
        rec.count(TsCounter::PageFetches, 50, 3);
        rec.count(TsCounter::PageFetches, 250, 5);
        rec.span(0, 0, 100);
        rec.note(
            150,
            0,
            &ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 0,
                attempt: 1,
            },
        );
        let mut r = empty_run();
        r.ts = Some(rec.into_log(300));
        let doc = perfetto_json(&r);
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let samples: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|x| x.as_str()) == Some("ts.page_fetches")
            })
            .collect();
        assert_eq!(samples.len(), 3, "one sample per window");
        assert_eq!(
            samples[2].get("ts").and_then(|t| t.as_u64()),
            Some(200),
            "samples land at window starts"
        );
        assert!(doc.contains("\"ts.retx 0->1\""));
        assert!(doc.contains("\"ctrl_occupancy_pct\""));
    }
}
