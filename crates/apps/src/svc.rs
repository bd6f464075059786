//! Svc — open-loop DSM-backed key-value/session service (the `ncp2-svc`
//! workload family).
//!
//! Unlike the six closed-loop kernels, requests arrive on a seeded
//! open-loop stream (`ncp2_svc::ArrivalStream`) whether or not the nodes
//! keep up, so queueing delay exists and the headline observable is the
//! **response time** (completion − arrival), reported per request through
//! `Ctx::svc_reply` into the run's log-bucketed histogram. Each simulated
//! node serves the requests assigned to it by `ncp2_svc::node_of`:
//!
//! * **get** — a lock-protected read of one Zipf-sampled catalog cell
//!   (read-mostly pages; the lock carries write notices, so invalidations
//!   and fetches land on the critical path exactly as the paper's
//!   migratory-data discussion predicts);
//! * **put** — a lock-protected XOR update of the same cell (commutative,
//!   so the final catalog state — and the checksum — is independent of
//!   service order, processor count and protocol mode);
//! * **session** — a lock-pinned migratory mutation of a session record
//!   (XOR of a value cell plus a commutative counter increment).
//!
//! Every per-request decision (serving node, class, key, session, update
//! value) is a pure function of the request's global sequence number, so
//! the multiset of DSM updates is fixed: the checksum validates bit-for-bit
//! against the sequential baseline under every protocol mode, processor
//! count and fault plan, while response times are free to vary — which is
//! the entire point of the study.

use ncp2_sim::Cycles;
use ncp2_svc::{node_of, ArrivalStream, Keyspace, ReqMix};

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Salt stream for the per-request key sampler.
const KEY_SALT: u64 = 0xA076_1D64_78BD_642F;
/// Salt stream for the per-request session picker.
const SESSION_SALT: u64 = 0xE703_7ED1_A0B4_28DB;
/// Salt stream for the per-request update value.
const VALUE_SALT: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// Service workload configuration.
#[derive(Debug, Clone)]
pub struct Svc {
    /// Total requests in the open-loop stream (across all nodes).
    pub requests: u64,
    /// Mean inter-arrival gap of the global stream, simulated cycles
    /// (smaller = higher offered load).
    pub mean_gap: Cycles,
    /// Catalog keys (Zipf-skewed popularity, rank 0 hottest).
    pub keys: usize,
    /// Session records (migratory, lock-pinned).
    pub sessions: usize,
    /// Put share of the request mix, permille.
    pub put_permille: u32,
    /// Session share of the request mix, permille.
    pub session_permille: u32,
    /// Zipf skew × 100 (0 = uniform, 100 = classic Zipf).
    pub skew_x100: u32,
    /// Local compute cycles per request (parsing, hashing, formatting).
    pub service_compute: Cycles,
    /// Stream / sampler seed.
    pub seed: u64,
}

impl Default for Svc {
    /// Tier-1 sizing: enough requests to populate a histogram, moderate
    /// utilization so the chaos slowdown budget holds.
    fn default() -> Self {
        Svc {
            requests: 96,
            mean_gap: 4_000,
            keys: 64,
            sessions: 8,
            put_permille: 250,
            session_permille: 125,
            skew_x100: 90,
            service_compute: 800,
            seed: 0x5ecc,
        }
    }
}

impl Svc {
    /// A copy of this config at a different offered load (used by the
    /// `svc_report` rate sweep).
    pub fn at_mean_gap(&self, mean_gap: Cycles) -> Self {
        Svc {
            mean_gap,
            ..self.clone()
        }
    }

    fn stream(&self) -> ArrivalStream {
        ArrivalStream::new(self.seed, self.mean_gap, self.requests)
    }

    fn mix(&self) -> ReqMix {
        ReqMix {
            put_permille: self.put_permille,
            session_permille: self.session_permille,
        }
    }

    /// The catalog key of request `seq` (Zipf-sampled, pure function).
    fn key_of(&self, keyspace: &Keyspace, seq: u64) -> usize {
        // overflow: hash mixing
        let mut rng = crate::rng::salted(self.seed, seq.wrapping_mul(KEY_SALT));
        keyspace.sample(&mut rng)
    }

    /// The session record of request `seq` (pure function).
    fn session_of(&self, seq: u64) -> u64 {
        // overflow: hash mixing
        let mut rng = crate::rng::salted(self.seed, seq.wrapping_mul(SESSION_SALT));
        rng.next_below(self.sessions as u64)
    }

    /// The commutative update value of request `seq` (pure function).
    fn value_of(&self, seq: u64) -> u64 {
        // overflow: hash mixing
        crate::rng::salted(self.seed, seq.wrapping_mul(VALUE_SALT)).next_u64()
    }

    fn key_lock(&self, key: usize) -> u32 {
        key as u32
    }

    fn session_lock(&self, s: u64) -> u32 {
        (self.keys as u64 + s) as u32
    }
}

/// Shared layout: the catalog array and the session records.
struct Layout {
    catalog: u64,
    sess_val: u64,
    sess_count: u64,
}

impl Layout {
    fn new(keys: usize, sessions: usize) -> Self {
        let mut a = Alloc::new();
        let catalog = a.page_aligned_array_f64(keys as u64);
        let sess_val = a.page_aligned_array_f64(sessions as u64);
        let sess_count = a.array_u64(sessions as u64);
        Layout {
            catalog,
            sess_val,
            sess_count,
        }
    }

    fn key_cell(&self, key: usize) -> u64 {
        self.catalog + 8 * key as u64
    }

    fn sess_val_cell(&self, s: u64) -> u64 {
        self.sess_val + 8 * s
    }

    fn sess_count_cell(&self, s: u64) -> u64 {
        self.sess_count + 8 * s
    }
}

impl Workload for Svc {
    fn name(&self) -> &'static str {
        "Svc"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Svc {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        assert!(self.keys > 0 && self.sessions > 0, "empty service state");
        let lay = Layout::new(self.keys, self.sessions);
        let keyspace = Keyspace::new(self.keys, self.skew_x100);
        let mix = self.mix();
        if ctx.pid == 0 {
            for k in 0..self.keys {
                ctx.write_u64(lay.key_cell(k), 0x5EED ^ k as u64).await;
            }
            for s in 0..self.sessions as u64 {
                ctx.write_u64(lay.sess_val_cell(s), 0).await;
                ctx.write_u64(lay.sess_count_cell(s), 0).await;
            }
        }
        ctx.barrier().await;

        // This node's slice of the global stream, in arrival order.
        let mine: Vec<ncp2_svc::Arrival> = self
            .stream()
            .iter()
            .filter(|a| node_of(a.seq, ctx.nprocs) == ctx.pid)
            .collect();
        let arrival_times: Vec<Cycles> = mine.iter().map(|a| a.at).collect();

        for (served, req) in mine.iter().enumerate() {
            // Open loop: idle (simulated) until the request has arrived;
            // if the node is behind, serve immediately — the backlog is
            // exactly the queueing delay the study measures.
            let now = ctx.now().await;
            if req.at > now {
                ctx.compute(req.at - now).await;
            }
            // Backlog after taking this request off the queue.
            let t = ctx.now().await;
            // arrival_times[served] = req.at ≤ t, so arrived ≥ served + 1.
            let arrived = arrival_times.partition_point(|&at| at <= t);
            let depth = (arrived - (served + 1)) as u64;
            ctx.svc_dequeue(depth).await;

            let class = mix.class_of(self.seed, req.seq);
            ctx.compute(self.service_compute).await;
            match class {
                ncp2_sim::SvcClass::Get => {
                    let key = self.key_of(&keyspace, req.seq);
                    ctx.lock(self.key_lock(key)).await;
                    // The value is timing-dependent (it reflects whichever
                    // puts happened to finish first), so it must not feed
                    // the checksum — only the traffic matters.
                    let _ = ctx.read_u64(lay.key_cell(key)).await;
                    ctx.unlock(self.key_lock(key)).await;
                }
                ncp2_sim::SvcClass::Put => {
                    let key = self.key_of(&keyspace, req.seq);
                    ctx.lock(self.key_lock(key)).await;
                    let old = ctx.read_u64(lay.key_cell(key)).await;
                    ctx.write_u64(lay.key_cell(key), old ^ self.value_of(req.seq))
                        .await;
                    ctx.unlock(self.key_lock(key)).await;
                }
                ncp2_sim::SvcClass::Session => {
                    let s = self.session_of(req.seq);
                    ctx.lock(self.session_lock(s)).await;
                    let old = ctx.read_u64(lay.sess_val_cell(s)).await;
                    ctx.write_u64(lay.sess_val_cell(s), old ^ self.value_of(req.seq))
                        .await;
                    let n = ctx.read_u64(lay.sess_count_cell(s)).await;
                    ctx.write_u64(lay.sess_count_cell(s), n + 1).await;
                    ctx.unlock(self.session_lock(s)).await;
                }
            }
            let done = ctx.now().await;
            ctx.svc_reply(class, done - req.at).await;
        }

        ctx.barrier().await;
        if ctx.pid == 0 {
            let mut ck = 0u64;
            for k in 0..self.keys {
                ck = ck.rotate_left(9) ^ ctx.read_u64(lay.key_cell(k)).await;
            }
            for s in 0..self.sessions as u64 {
                ck = ck.rotate_left(9) ^ ctx.read_u64(lay.sess_val_cell(s)).await;
                ck = ck.rotate_left(9) ^ ctx.read_u64(lay.sess_count_cell(s)).await;
            }
            ck
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_app, sequential_baseline};
    use ncp2_core::{OverlapMode, Protocol};
    use ncp2_sim::SysParams;

    #[test]
    fn checksum_is_processor_count_invariant() {
        let seq = sequential_baseline(&SysParams::default(), Svc::default());
        assert_ne!(seq.checksum, 0);
        for nprocs in [2usize, 4, 8] {
            let r = run_app(
                SysParams::default().with_nprocs(nprocs),
                Protocol::TreadMarks(OverlapMode::IPD),
                Svc::default(),
            );
            assert_eq!(r.checksum, seq.checksum, "checksum drift at {nprocs}p");
        }
    }

    #[test]
    fn checksum_is_mode_invariant() {
        let base = run_app(
            SysParams::default().with_nprocs(4),
            Protocol::TreadMarks(OverlapMode::Base),
            Svc::default(),
        );
        for proto in [
            Protocol::TreadMarks(OverlapMode::IPD),
            Protocol::Aurc { prefetch: true },
        ] {
            let r = run_app(SysParams::default().with_nprocs(4), proto, Svc::default());
            assert_eq!(r.checksum, base.checksum);
        }
    }

    #[test]
    fn run_reports_service_stats() {
        let cfg = Svc::default();
        let total = cfg.requests;
        let r = run_app(
            SysParams::default().with_nprocs(4),
            Protocol::TreadMarks(OverlapMode::IPD),
            cfg,
        );
        let svc = r.svc.expect("service run must carry SvcStats");
        assert_eq!(svc.completed(), total);
        assert_eq!(svc.dequeues, total);
        assert_eq!(svc.response.count(), total);
        assert!(svc.gets > 0 && svc.puts > 0 && svc.sessions > 0);
        // Responses include at least the service compute time.
        assert!(svc.response.quantile(0.5) >= 800);
    }

    #[test]
    fn closed_loop_kernels_carry_no_svc_stats() {
        let r = run_app(
            SysParams::default().with_nprocs(2),
            Protocol::TreadMarks(OverlapMode::Base),
            crate::Tsp {
                cities: 6,
                prefix_depth: 2,
                seed: 1,
            },
        );
        assert!(r.svc.is_none());
    }

    #[test]
    fn pure_functions_are_pure() {
        let svc = Svc::default();
        let ks = Keyspace::new(svc.keys, svc.skew_x100);
        for seq in 0..50 {
            assert_eq!(svc.key_of(&ks, seq), svc.key_of(&ks, seq));
            assert_eq!(svc.session_of(seq), svc.session_of(seq));
            assert_eq!(svc.value_of(seq), svc.value_of(seq));
            assert!(svc.session_of(seq) < svc.sessions as u64);
            assert!(svc.key_of(&ks, seq) < svc.keys);
        }
    }
}
