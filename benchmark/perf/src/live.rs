//! Running a workload against the live cluster and measuring it.
//!
//! Load comes from **one** driver thread over **one** multi-identity
//! transport: `run_mux_sources` with the [`LiveSource`] below as its
//! `OpSource`. The source paces the ops (closed loop, or open loop on a
//! seeded Poisson schedule), times each one, checks its reply through
//! the workload's feed, and cuts the measured window into slices. Every
//! end-to-end metric is computed per slice and reported as the median
//! slice, which is what makes a tail percentile repeatable on a small
//! shared host.

use crate::cluster::{LiveCluster, CLIENT_RETRANSMIT};
use crate::host;
use crate::spans::{Recorder, Span};
use crate::stats::{percentile, percentile_of, summarize, Summary};
use crate::workload::{
    andrew_expected, andrew_script, AndrewFeed, CounterFeed, FeedStep, Mix, OpFeed, SplitMix,
    Workload, CLIENTS, OPEN_RATE_PER_S, SLO_LIMIT_MS,
};
use bft_core::CompletedOp;
use bft_runtime::{run_mux_sources, NextOp, OpSource, Snapshot};
use bft_types::ClientId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Clusters a timed run boots; each is measured for one slice of
/// `seconds / CYCLES`. Throughput differs more between two clusters
/// (thread placement, connection order) than between two slices of one,
/// so a run spends its seconds on many short-lived clusters rather than
/// on one long-lived one, and reports the median.
pub const CYCLES: usize = 8;
/// Completed ops before a closed-loop cluster starts being measured.
pub const WARMUP_OPS_CLOSED: u64 = 8_000;
/// Arrivals before an open-loop cluster starts being measured (0.5 s).
pub const WARMUP_OPS_OPEN: u64 = 1_500;

/// Warm-up length of `workload`'s clusters, in ops.
pub fn warmup_ops(workload: Workload) -> u64 {
    if workload.open_loop() {
        WARMUP_OPS_OPEN
    } else {
        WARMUP_OPS_CLOSED
    }
}

/// How one cluster's run becomes a slice.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Warm up for `warmup_ops` completions, measure for `slice`, then
    /// issue each client's closing read.
    Timed { warmup_ops: u64, slice: Duration },
    /// One pass over a finite feed is one slice; the cluster is fresh,
    /// so there is no warm-up to skip.
    Pass,
}

/// What was measured in one slice.
#[derive(Clone, Debug, Default)]
pub struct SliceData {
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Ops whose reply arrived in the slice, wrong ones included.
    pub completed: u64,
    /// Of those, the ones with a wrong reply.
    pub wrong: u64,
    /// Ops slower than [`SLO_LIMIT_MS`], wrong ones included.
    pub slo_miss: u64,
    /// Latency of ordered (read-write) ops, ms, ascending once the slice
    /// is closed (as are the two vectors below).
    pub rw_ms: Vec<f64>,
    /// Latency of read-only fast-path ops, ms.
    pub ro_ms: Vec<f64>,
    /// Open loop only: how late each op was sent, µs.
    pub sched_lag_us: Vec<f64>,
}

impl SliceData {
    fn good(&self) -> f64 {
        (self.completed - self.wrong) as f64
    }
    pub fn ops_per_s(&self) -> f64 {
        self.good() / self.wall_s
    }
    pub fn cpu_us_per_op(&self) -> f64 {
        (self.cpu_user_s + self.cpu_sys_s) * 1e6 / self.good()
    }
    pub fn slo_ok_share(&self) -> f64 {
        1.0 - self.slo_miss as f64 / self.completed.max(1) as f64
    }
}

struct Flight {
    /// When the op was due (open loop) or sent (closed loop): latency
    /// counts from here.
    started: Instant,
    sent: Instant,
    read_only: bool,
    closing: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Warmup,
    Measure,
    Closing,
}

struct OpenSlice {
    started: Instant,
    cpu: (f64, f64),
    data: SliceData,
}

/// The benchmark's `OpSource`.
pub struct LiveSource<F: OpFeed> {
    feed: F,
    mode: Mode,
    /// Arrival rate of the open loop, ops/s (None = closed loop).
    open_rate: Option<f64>,
    arrivals: SplitMix,
    next_due: Option<Instant>,
    phase: Phase,
    flights: Vec<Option<Flight>>,
    in_flight: usize,
    closing_issued: Vec<bool>,
    closed: usize,
    warm_completed: u64,
    current: Option<OpenSlice>,
    rec: Option<Recorder>,
    /// When measuring began (end of warm-up; first send in pass mode).
    pub measure_started: Option<Instant>,
    pub slices: Vec<SliceData>,
    pub attempted: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
}

impl<F: OpFeed> LiveSource<F> {
    pub fn new(
        feed: F,
        mode: Mode,
        open_rate: Option<f64>,
        seed: u64,
        clients: usize,
        rec: Option<Recorder>,
    ) -> Self {
        LiveSource {
            feed,
            mode,
            open_rate,
            arrivals: SplitMix(seed ^ 0xa771_7a15),
            next_due: None,
            phase: match mode {
                Mode::Timed { .. } => Phase::Warmup,
                Mode::Pass => Phase::Measure,
            },
            flights: (0..clients).map(|_| None).collect(),
            in_flight: 0,
            closing_issued: vec![false; clients],
            closed: 0,
            warm_completed: 0,
            current: None,
            rec,
            measure_started: None,
            slices: Vec::new(),
            attempted: 0,
            wrong: 0,
            first_error: None,
        }
    }

    pub fn feed(&self) -> &F {
        &self.feed
    }

    /// Ops sent whose reply never came (the run hit its deadline).
    pub fn unanswered(&self) -> u64 {
        self.in_flight as u64
    }

    fn open_slice(&mut self, now: Instant) {
        self.measure_started.get_or_insert(now);
        self.current = Some(OpenSlice {
            started: now,
            cpu: host::cpu_times(),
            data: SliceData::default(),
        });
    }

    fn close_slice(&mut self, now: Instant) {
        if let Some(mut open) = self.current.take() {
            let (user, sys) = host::cpu_times();
            open.data.wall_s = now.duration_since(open.started).as_secs_f64();
            open.data.cpu_user_s = user - open.cpu.0;
            open.data.cpu_sys_s = sys - open.cpu.1;
            // Sorted once here, so the percentiles read them in place.
            for samples in [
                &mut open.data.rw_ms,
                &mut open.data.ro_ms,
                &mut open.data.sched_lag_us,
            ] {
                samples.sort_by(f64::total_cmp);
            }
            self.slices.push(open.data);
        }
    }

    /// Opens the slice when measuring starts and closes it, leaving
    /// the measured window, once `now` has passed its planned end.
    fn roll(&mut self, now: Instant) {
        let Mode::Timed { slice, .. } = self.mode else {
            return;
        };
        if self.phase != Phase::Measure {
            return;
        }
        match &self.current {
            None => self.open_slice(now),
            Some(open) if now >= open.started + slice => {
                self.close_slice(now);
                self.phase = Phase::Closing;
            }
            Some(_) => {}
        }
    }

    /// Next seeded exponential inter-arrival gap.
    fn arrival_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.arrivals.next_unit().ln() / rate)
    }

    fn send(&mut self, slot: usize, started: Instant, read_only: bool, closing: bool) {
        self.attempted += 1;
        self.in_flight += 1;
        self.flights[slot] = Some(Flight {
            started,
            sent: Instant::now(),
            read_only,
            closing,
        });
    }
}

/// Sleeps until shortly before `due`, then spins: a plain sleep
/// overshoots by the timer slack, which would show as generator lag.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(70);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
            _ => std::hint::spin_loop(),
        }
    }
}

impl<F: OpFeed> OpSource for LiveSource<F> {
    fn next(&mut self, slot: usize, _now: Instant) -> NextOp {
        let mut now = Instant::now();
        self.roll(now);
        if self.phase == Phase::Closing {
            if self.closing_issued[slot] {
                return NextOp::Finished;
            }
            self.closing_issued[slot] = true;
            return match self.feed.closing(slot) {
                Some((op, tag)) => {
                    self.send(slot, now, false, true);
                    // Ordered, not read-only: the closing read must see
                    // every write acknowledged before it.
                    NextOp::Invoke {
                        op,
                        read_only: false,
                        tag,
                    }
                }
                None => {
                    self.closed += 1;
                    NextOp::Finished
                }
            };
        }
        let mut started = now;
        if let Some(rate) = self.open_rate {
            let due = *self.next_due.get_or_insert(now);
            if due > now {
                // The driver only wakes on a reply or a timer. With ops
                // in flight a reply is imminent; with none, nothing
                // would wake it before the next arrival, so wait here.
                if self.in_flight > 0 {
                    return NextOp::Wait;
                }
                wait_until(due);
                now = Instant::now();
                self.roll(now);
                if self.phase == Phase::Closing {
                    return NextOp::Wait;
                }
            }
            started = due;
            let gap = self.arrival_gap(rate);
            self.next_due = Some(due + gap);
        }
        match self.feed.next(slot) {
            FeedStep::Op { op, read_only, tag } => {
                if self.current.is_none() && matches!(self.mode, Mode::Pass) {
                    self.open_slice(now);
                }
                self.send(slot, started, read_only, false);
                NextOp::Invoke { op, read_only, tag }
            }
            FeedStep::Wait => NextOp::Wait,
            FeedStep::Done => NextOp::Finished,
        }
    }

    fn done(&mut self, slot: usize, tag: u64, op: &CompletedOp, _latency: Duration) -> Instant {
        let now = Instant::now();
        let flight = self.flights[slot]
            .take()
            .expect("completion for a slot with nothing in flight");
        self.in_flight -= 1;
        let verdict = self.feed.done(slot, tag, &op.result);
        if let Err(why) = &verdict {
            self.wrong += 1;
            self.first_error.get_or_insert_with(|| why.clone());
        }
        if flight.closing {
            self.closed += 1;
            return now;
        }
        self.roll(now);
        match self.phase {
            Phase::Warmup => {
                self.warm_completed += 1;
                if let Mode::Timed { warmup_ops, .. } = self.mode {
                    if self.warm_completed >= warmup_ops {
                        self.phase = Phase::Measure;
                        self.roll(now);
                    }
                }
            }
            Phase::Measure => {
                let latency_ms = now.duration_since(flight.started).as_secs_f64() * 1e3;
                if let Some(rec) = &self.rec {
                    rec.push(Span {
                        id: tag,
                        parent: 0,
                        name: if flight.read_only {
                            "client.request_ro"
                        } else {
                            "client.request_rw"
                        },
                        op: tag,
                        start_ns: rec.ns_at(flight.started),
                        end_ns: rec.ns_at(now),
                    });
                }
                let data = &mut self
                    .current
                    .as_mut()
                    .expect("measuring without a slice")
                    .data;
                data.completed += 1;
                if verdict.is_err() || latency_ms > SLO_LIMIT_MS {
                    data.slo_miss += 1;
                }
                if verdict.is_err() {
                    data.wrong += 1;
                } else if flight.read_only {
                    data.ro_ms.push(latency_ms);
                } else {
                    data.rw_ms.push(latency_ms);
                }
                if self.open_rate.is_some() {
                    let lag = flight.sent.duration_since(flight.started);
                    data.sched_lag_us.push(lag.as_secs_f64() * 1e6);
                }
                // The last reply of a finite feed ends the pass.
                if matches!(self.mode, Mode::Pass) && self.feed.exhausted() {
                    self.close_slice(now);
                }
            }
            Phase::Closing => {}
        }
        now
    }

    fn finished(&self) -> bool {
        match self.mode {
            Mode::Timed { .. } => self.closed == self.flights.len(),
            Mode::Pass => self.feed.exhausted() && self.in_flight == 0,
        }
    }
}

/// One per-layer metric.
#[derive(Clone, Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Raw protocol and transport counts, summed over the clusters a run
/// used and read from `NodeHandle::snapshot()` and the client reports
/// after the load stops. Free: nothing is traced to get them.
#[derive(Clone, Debug, Default)]
pub struct LiveCounters {
    pub client_ops: u64,
    pub client_retransmitted: u64,
    /// Ordered requests and batches executed, summed over replicas.
    pub requests_executed: u64,
    pub batches_executed: u64,
    pub checkpoints_taken: u64,
    pub pages_fetched: u64,
    pub view_changes: u64,
    pub auth_failures: u64,
    pub frames_sent: u64,
    pub frames_dropped: u64,
    pub reconnects: u64,
    /// Largest `max - min` of `last_exec` over replicas when load stopped.
    pub replica_lag_seq: u64,
}

impl LiveCounters {
    fn absorb(&mut self, at_stop: &[Snapshot], client_ops: u64, retransmitted: u64) {
        self.client_ops += client_ops;
        self.client_retransmitted += retransmitted;
        for s in at_stop {
            self.requests_executed += s.stats.requests_executed;
            self.batches_executed += s.stats.batches_executed;
            self.checkpoints_taken += s.stats.checkpoints_taken;
            self.pages_fetched += s.stats.pages_fetched;
            self.view_changes += s.stats.view_changes_started + s.stats.views_entered + s.view;
            self.auth_failures += s.stats.auth_failures;
            self.frames_sent += s.transport.frames_sent;
            self.frames_dropped += s.transport.frames_dropped;
            // Each replica dials its three peers once at boot.
            self.reconnects += s.transport.connects.saturating_sub(3);
        }
        let execs = at_stop.iter().map(|s| s.last_exec.0);
        let lag = execs.clone().max().unwrap_or(0) - execs.min().unwrap_or(0);
        self.replica_lag_seq = self.replica_lag_seq.max(lag);
    }

    pub fn retransmit_share(&self) -> f64 {
        self.client_retransmitted as f64 / self.client_ops.max(1) as f64
    }

    /// Named per-layer values, in the order they are reported.
    pub fn metrics(&self, sched_lag_us_p99: f64) -> Vec<LayerMetric> {
        let ops = self.client_ops.max(1) as f64;
        [
            (
                "core.ops_per_batch",
                "count",
                self.requests_executed as f64 / self.batches_executed.max(1) as f64,
            ),
            (
                "core.checkpoints_per_kop",
                "count",
                // Per replica: every replica takes every checkpoint.
                self.checkpoints_taken as f64 / 4.0 / (ops / 1e3),
            ),
            ("core.replica_lag_seq", "count", self.replica_lag_seq as f64),
            (
                "core.state_transfer_pages",
                "count",
                self.pages_fetched as f64,
            ),
            (
                "core.client.retransmit_share",
                "share",
                self.retransmit_share(),
            ),
            ("core.view_changes", "count", self.view_changes as f64),
            ("core.auth_failures", "count", self.auth_failures as f64),
            (
                "runtime.transport.frames_per_op",
                "count",
                self.frames_sent as f64 / ops,
            ),
            (
                "runtime.transport.drop_share",
                "share",
                self.frames_dropped as f64 / self.frames_sent.max(1) as f64,
            ),
            (
                "runtime.transport.reconnects",
                "count",
                self.reconnects as f64,
            ),
            ("runtime.client.sched_lag_us_p99", "us", sched_lag_us_p99),
        ]
        .into_iter()
        .map(|(name, unit, value)| LayerMetric { name, unit, value })
        .collect()
    }
}

/// Everything one untraced or traced live run produced.
#[derive(Clone, Debug)]
pub struct RunData {
    pub workload: Workload,
    pub slices: Vec<SliceData>,
    /// One entry per cluster set-up: boot to first measured op, s.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub counters: LiveCounters,
    /// One entry per cycle: peak resident set while its cluster ran, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Length of the measured window, s (sum of slices).
    pub measured_s: f64,
}

/// One reported end-to-end metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    /// Samples behind a latency percentile, over all slices.
    pub samples: Option<usize>,
}

impl RunData {
    /// Reasons the run is not a normal-case measurement, if any.
    pub fn invalid_reasons(&self) -> Vec<String> {
        let c = &self.counters;
        let mut why = Vec::new();
        if c.view_changes > 0 {
            why.push(format!("core.view_changes = {}", c.view_changes));
        }
        if c.auth_failures > 0 {
            why.push(format!("core.auth_failures = {}", c.auth_failures));
        }
        if self.failed > 0 {
            why.push(format!("{} of {} ops failed", self.failed, self.attempted));
        }
        if c.retransmit_share() > 0.01 {
            why.push(format!(
                "core.client.retransmit_share = {:.4} > 0.01",
                c.retransmit_share()
            ));
        }
        why
    }

    pub fn sched_lag_us_p99(&self) -> f64 {
        let mut all: Vec<f64> = self
            .slices
            .iter()
            .flat_map(|s| s.sched_lag_us.iter().copied())
            .collect();
        percentile_of(&mut all, 0.99)
    }

    /// The nine end-to-end metrics, each the median slice.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let per_slice = |f: &dyn Fn(&SliceData) -> f64| -> Summary {
            summarize(&self.slices.iter().map(f).collect::<Vec<_>>())
        };
        let pct = |pick: fn(&SliceData) -> &Vec<f64>, q: f64| {
            per_slice(&|s: &SliceData| percentile(pick(s), q))
        };
        let rw: usize = self.slices.iter().map(|s| s.rw_ms.len()).sum();
        let ro: usize = self.slices.iter().map(|s| s.ro_ms.len()).sum();
        let whole = |v: f64| Summary {
            median: v,
            iqr: 0.0,
            slices: 1,
        };
        let m = |name, unit, summary, samples| Metric {
            name,
            unit,
            summary,
            samples,
        };
        vec![
            m("ops_per_s", "1/s", per_slice(&SliceData::ops_per_s), None),
            m("rw_p50_ms", "ms", pct(|s| &s.rw_ms, 0.5), Some(rw)),
            m("rw_p99_ms", "ms", pct(|s| &s.rw_ms, 0.99), Some(rw)),
            m("ro_p50_ms", "ms", pct(|s| &s.ro_ms, 0.5), Some(ro)),
            // Over the whole run, not the median slice: a median would
            // hide the one slice in which something failed.
            m(
                "ok_share",
                "share",
                whole(1.0 - self.failed as f64 / self.attempted.max(1) as f64),
                None,
            ),
            m(
                "slo_ok_share",
                "share",
                per_slice(&SliceData::slo_ok_share),
                None,
            ),
            m(
                "cpu_us_per_op",
                "us",
                per_slice(&SliceData::cpu_us_per_op),
                None,
            ),
            m("peak_rss_mb", "MiB", summarize(&self.peak_rss_mb), None),
            m("setup_s", "s", summarize(&self.setup_s), None),
        ]
    }
}

/// Stops the load's cluster through the oracle: reads the counters,
/// waits for the replicas to converge on one state digest with agreeing
/// journals, and shuts the cluster down.
fn settle(
    cluster: LiveCluster,
    counters: &mut LiveCounters,
    client_ops: u64,
    retransmitted: u64,
) -> Result<(), String> {
    let at_stop = cluster.snapshots();
    let converged = at_stop.and_then(|at_stop| {
        counters.absorb(&at_stop, client_ops, retransmitted);
        cluster.wait_converged(Duration::from_secs(30))
    });
    cluster.shutdown();
    converged.map(|_| ())
}

/// The Andrew script and the replies a correct service gives to it.
struct AndrewPrep {
    script: Vec<bfs::ScriptedOp>,
    expected: std::rc::Rc<Vec<bfs::NfsReply>>,
    /// What preparing them cost, s: part of every set-up.
    prep_s: f64,
}

/// One workload measured over a series of cycles. A cycle boots a fresh
/// cluster, measures one slice on it (a fixed time after a warm-up, or
/// one pass of the Andrew script), runs the oracle, and shuts it down.
pub struct Session<'a> {
    workload: Workload,
    seed: u64,
    scratch: &'a Path,
    ids: Vec<ClientId>,
    andrew: Option<AndrewPrep>,
    data: RunData,
}

impl<'a> Session<'a> {
    pub fn new(workload: Workload, seed: u64, scratch: &'a Path) -> Session<'a> {
        let andrew = (workload == Workload::BfsAndrew).then(|| {
            let started = Instant::now();
            let script = andrew_script();
            let expected = std::rc::Rc::new(andrew_expected(&script));
            AndrewPrep {
                script,
                expected,
                prep_s: started.elapsed().as_secs_f64(),
            }
        });
        Session {
            workload,
            seed,
            scratch,
            ids: (0..CLIENTS).map(ClientId).collect(),
            andrew,
            data: RunData {
                workload,
                slices: Vec::new(),
                setup_s: Vec::new(),
                attempted: 0,
                failed: 0,
                first_error: None,
                counters: LiveCounters::default(),
                peak_rss_mb: Vec::new(),
                measured_s: 0.0,
            },
        }
    }

    pub fn slices(&self) -> usize {
        self.data.slices.len()
    }

    /// Runs one cycle. `slice` and `warmup_ops` apply to the timed
    /// workloads; an Andrew pass is as long as the script. With a
    /// recorder the cluster runs the traced service.
    pub fn cycle(
        &mut self,
        slice: Duration,
        warmup_ops: u64,
        rec: Option<&Recorder>,
    ) -> Result<(), String> {
        host::reset_peak_rss();
        let booted = Instant::now();
        let cluster = LiveCluster::boot(self.workload, self.seed, rec, self.scratch);
        let clients = self.ids.len();
        match &self.andrew {
            Some(prep) => {
                let feed = AndrewFeed::new(self.seed, prep.script.clone(), prep.expected.clone());
                let mut source =
                    LiveSource::new(feed, Mode::Pass, None, self.seed, clients, rec.cloned());
                let deadline = Duration::from_secs(60);
                let reports = run_mux_sources(
                    &self.ids,
                    &cluster.topo,
                    &mut source,
                    Some(CLIENT_RETRANSMIT),
                    deadline,
                );
                // Ops never sent count as attempted and unanswered: the
                // pass owes a correct reply to every op of the script.
                let total = prep.script.len() as u64;
                let unanswered = total - source.feed().completed() as u64;
                let prep_s = prep.prep_s;
                self.absorb(cluster, booted, prep_s, source, reports, total, unanswered)
            }
            None => {
                let (mix, open_rate) = if self.workload.open_loop() {
                    (Mix::HalfBySeed, Some(OPEN_RATE_PER_S))
                } else {
                    (Mix::EveryFourth, None)
                };
                let feed = CounterFeed::new(self.seed, mix, clients);
                let mode = Mode::Timed { warmup_ops, slice };
                let mut source =
                    LiveSource::new(feed, mode, open_rate, self.seed, clients, rec.cloned());
                let deadline = slice + Duration::from_secs(60);
                let reports = run_mux_sources(
                    &self.ids,
                    &cluster.topo,
                    &mut source,
                    Some(CLIENT_RETRANSMIT),
                    deadline,
                );
                // A run cut off by its deadline failed even if every op
                // that was sent got its answer.
                let unanswered = source.unanswered().max(u64::from(!source.finished()));
                let attempted = source.attempted;
                self.absorb(cluster, booted, 0.0, source, reports, attempted, unanswered)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn absorb<F: OpFeed>(
        &mut self,
        cluster: LiveCluster,
        booted: Instant,
        prep_s: f64,
        mut source: LiveSource<F>,
        reports: Vec<bft_runtime::ClientReport>,
        attempted: u64,
        unanswered: u64,
    ) -> Result<(), String> {
        let data = &mut self.data;
        data.attempted += attempted;
        data.failed += source.wrong + unanswered;
        if data.first_error.is_none() {
            data.first_error = source.first_error.take().or_else(|| {
                (unanswered > 0).then(|| format!("{unanswered} ops unanswered at the deadline"))
            });
        }
        if let Some(started) = source.measure_started {
            data.setup_s
                .push(prep_s + started.duration_since(booted).as_secs_f64());
        }
        data.measured_s += source.slices.iter().map(|s| s.wall_s).sum::<f64>();
        data.slices.append(&mut source.slices);
        data.peak_rss_mb.push(host::peak_rss_mb());
        let done: u64 = reports.iter().map(|r| r.completed).sum();
        let retransmitted: u64 = reports.iter().map(|r| r.retransmitted).sum();
        settle(cluster, &mut data.counters, done, retransmitted)?;
        match (data.failed, &data.first_error) {
            (0, _) => Ok(()),
            (failed, why) => Err(format!(
                "oracle: {failed} of {} ops failed: {}",
                data.attempted,
                why.as_deref().unwrap_or("no reply")
            )),
        }
    }

    pub fn finish(self) -> Result<RunData, String> {
        if self.data.slices.is_empty() {
            return Err("no slice was measured".to_string());
        }
        Ok(self.data)
    }
}

/// Runs `workload` for `seconds` and returns what was measured, or why
/// the oracle rejected the run. The timed workloads spend `seconds` of
/// measured time over [`CYCLES`] clusters. `bfs_andrew`, whose pass
/// length is set by the script, spends `seconds` on whole cycles (set-up
/// plus pass), at least three of them.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    warmup_ops: u64,
) -> Result<RunData, String> {
    let mut session = Session::new(workload, seed, scratch);
    let slice = Duration::from_secs_f64(seconds / CYCLES as f64);
    let started = Instant::now();
    loop {
        let enough = if workload == Workload::BfsAndrew {
            started.elapsed().as_secs_f64() >= seconds && session.slices() >= 3
        } else {
            session.slices() >= CYCLES
        };
        if enough {
            return session.finish();
        }
        session.cycle(slice, warmup_ops, None)?;
    }
}
