//! One supervised shard pool for every data-plane stage (paper §7.2,
//! DESIGN.md §9).
//!
//! The paper scales the gateway and the border router the same way: each
//! core owns a disjoint slice of the reservations. [`ShardPool`] is that
//! deployment shape for any [`Stage`] — the two production stages are
//! [`Gateway`] and [`BorderRouter`]. A pool runs `n` worker threads, each
//! owning one stage instance behind a bounded lock-free job ring and
//! output ring ([`colibri_ring`]). Every pool gets, always on:
//!
//! * **Steering** — a job runs on the shard [`shard_index`] assigns its
//!   reservation ID, so per-reservation state (token buckets, replay
//!   filters, crypto caches) stays private to one shard and each flow is
//!   processed in FIFO order. Jobs without a reservation ID (unparseable
//!   headers) fall back to round-robin.
//! * **Backpressure** — [`ShardPool::try_submit`] returns
//!   [`SubmitError::WouldBlock`] with the job instead of waiting.
//!   [`ShardPool::submit`] applies the class-aware shed policy of
//!   Appendix B: best effort is shed (counted), reserved and control jobs
//!   are never shed. While a reserved job waits, the driver drains
//!   outputs into the caller's vector, so a worker blocked on a full
//!   output ring always makes progress.
//! * **Supervision** — each batch runs under `catch_unwind`. A panic
//!   rebuilds the stage from the factory and returns the batch's jobs as
//!   [`Outcome::PanicDiscard`], buffers intact; the worker thread keeps
//!   serving. A rebuilt stage starts from the factory's state: crypto
//!   caches are cold, and a gateway's reservation table is empty, so it
//!   answers `UnknownReservation` until its reservations are installed
//!   again. [`ShardPool::health`] reports per-shard heartbeats, and
//!   [`ShardPool::kill_shard`] / [`ShardPool::respawn_shard`] model a
//!   worker that dies outright.
//! * **Recycling** — buffers of drained outputs return to a freelist
//!   ([`ShardPool::buffer`] / [`ShardPool::recycle`]), so the steady
//!   state allocates no packet buffers.
//!
//! Every job yields exactly one output. The ledger, checked by
//! [`PoolSnapshot::balanced`]:
//!
//! ```text
//! submitted == processed + panic_discarded + lost_to_kill
//! processed == Stage::processed(stats)      (the stages' own counters)
//! offered   == submitted + shed
//! ```

use crate::classes::TrafficClass;
use crate::crypto_cache::CryptoCacheStats;
use crate::gateway::{Gateway, GatewayError, GatewayStats};
use crate::router::{BorderRouter, RouterStats, RouterVerdict};
use colibri_base::{HostAddr, Instant, InterfaceId, ResId};
use colibri_ctrl::OwnedEer;
use colibri_qdisc::QdiscStats;
use colibri_ring::{ring, Consumer, Producer, TrySendError};
use colibri_telemetry::{Registry, Stability};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How many jobs a worker pulls per ring drain. Batching lets the router
/// validate whole batches with the interleaved CMAC; kept modest so
/// latency stays bounded.
const WORKER_BATCH: usize = 32;

/// The shard owning `res_id` among `n` shards.
///
/// A SplitMix64-style finalizer over the raw reservation ID: cheap, well
/// mixed, and shared by every sharded deployment so that the shard
/// assignment of a reservation is the same at the gateway and at every
/// router.
pub fn shard_index(res_id: ResId, n: usize) -> usize {
    let mut x = res_id.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 33) as usize % n
}

/// Counters that fold across shards and across worker generations.
pub trait Merge {
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// A data-plane stage a [`ShardPool`] can run: a batch process over owned
/// jobs plus a mergeable stats type.
pub trait Stage: Send + 'static {
    /// One unit of work. Owned, so its buffers travel with it and come
    /// back in the [`Output`].
    type Job: Send + 'static;
    /// What the stage decided for one job.
    type Verdict: Send + 'static;
    /// The stage's counters.
    type Stats: Merge + Copy + Default + std::fmt::Debug + PartialEq + Send + 'static;
    /// Prefix of the shard labels (`<NAME><i>`) and of the pool's
    /// steering metrics (`colibri_<NAME>_steered_total`, ...).
    const NAME: &'static str;

    /// The reservation a job belongs to, if it can be read.
    fn steer(job: &Self::Job) -> Option<ResId>;
    /// Processes `jobs` in order at `now`, pushing exactly one verdict
    /// per job onto `verdicts`.
    fn process(&mut self, jobs: &mut [Self::Job], now: Instant, verdicts: &mut Vec<Self::Verdict>);
    /// The stage's counters so far.
    fn stats(&self) -> Self::Stats;
    /// How many jobs `stats` records as decided: the stage's own count,
    /// which [`PoolSnapshot::balanced`] holds against the verdicts the
    /// driver drained. A factory-built stage starts at zero.
    fn processed(stats: &Self::Stats) -> u64;
    /// Registers the stage's own telemetry under `shard` in `registry`.
    fn attach_telemetry(&mut self, registry: &Registry, shard: &str);
    /// Returns a finished job's buffers, cleared, to the freelist.
    fn recycle(job: Self::Job, free: &mut Vec<Vec<u8>>);
}

/// What happened to one job in a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<V> {
    /// The stage processed the job and decided this.
    Done(V),
    /// The worker panicked while this job's batch was in flight; the job
    /// was not (fully) processed. It comes back with its buffers so the
    /// caller can count or retry it.
    PanicDiscard,
}

/// One job back from a shard.
pub struct Output<S: Stage> {
    /// Verdict, or an accounted panic discard.
    pub outcome: Outcome<S::Verdict>,
    /// The job, with its buffers, for reuse.
    pub job: S::Job,
}

/// Why [`ShardPool::try_submit`] could not enqueue. The job rides back in
/// the error so the caller decides its fate: shed it, drain outputs and
/// retry, or hold it.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The owning shard's ring is at capacity (backpressure).
    WouldBlock(J),
}

/// The shed decision taken by [`ShardPool::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Enqueued on the owning shard.
    Enqueued,
    /// Ring full and the job was best-effort: shed (counted), buffers
    /// recycled.
    Shed,
}

/// A driver-side view of one shard's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Batches the current worker has drained so far.
    pub heartbeat: u64,
    /// Panics contained (stage rebuilds) on this shard.
    pub panics: u64,
    /// Whether the worker thread is still running.
    pub alive: bool,
    /// Jobs currently queued to this shard.
    pub queued: usize,
}

/// Per-shard piece of a [`PoolSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot<T> {
    /// Jobs accepted into this shard's ring (the steering-imbalance
    /// numerator).
    pub submitted: u64,
    /// Stage counters, merged across respawns of this shard index.
    pub stats: T,
}

/// The result of a [`ShardPool`] run: merged stage counters, the
/// per-shard split, and the exact job ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolSnapshot<T> {
    /// Number of shards.
    pub shards: usize,
    /// Stage counters merged over every shard and worker generation.
    pub stats: T,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<ShardSnapshot<T>>,
    /// Jobs steered by reservation ID.
    pub steered: u64,
    /// Jobs sprayed round-robin (no readable reservation ID).
    pub unsteered: u64,
    /// Jobs accepted into shard rings.
    pub submitted: u64,
    /// Jobs that came back with a verdict.
    pub processed: u64,
    /// Jobs the stages' own counters record as decided
    /// ([`Stage::processed`] of `stats`).
    pub stage_processed: u64,
    /// Best-effort jobs shed by the backpressure policy (never entered a
    /// ring).
    pub shed_best_effort: u64,
    /// Reserved-class jobs shed — the policy never does this; the counter
    /// exists so the invariant "== 0" is checkable, not assumed.
    pub shed_reserved: u64,
    /// Jobs that came back as [`Outcome::PanicDiscard`].
    pub panic_discarded: u64,
    /// Jobs stranded in a killed worker's ring.
    pub lost_to_kill: u64,
    /// Panics contained across shards.
    pub panics: u64,
    /// Shard respawns after kills.
    pub respawns: u64,
}

impl<T> PoolSnapshot<T> {
    /// The conservation identity: every job accepted into a ring came
    /// back with a verdict, came back as a panic discard, or was counted
    /// against a killed shard — and the stages' own counters agree with
    /// the verdicts, so torn counts folded after a panic or a killed
    /// worker's unmerged stats show up too.
    pub fn balanced(&self) -> bool {
        self.submitted == self.processed + self.panic_discarded + self.lost_to_kill
            && self.stage_processed == self.processed
    }

    /// The busiest shard's submitted count divided by the per-shard mean
    /// (1.0 = perfectly even); 0.0 when nothing was submitted.
    pub fn steering_imbalance(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.submitted).sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.per_shard.len() as f64;
        let max = self.per_shard.iter().map(|s| s.submitted).max().unwrap_or(0);
        max as f64 / mean
    }
}

struct Work<J> {
    job: J,
    now: Instant,
}

/// Per-worker cells written by the worker and read by the driver without
/// joining the thread. All `Relaxed` except `killed`: they are statistics
/// and publish no other data.
#[derive(Default)]
struct Health {
    /// Bumped once per drained batch; a heartbeat that stops advancing
    /// while jobs are queued marks a wedged shard.
    heartbeat: AtomicU64,
    /// Panics contained by `catch_unwind`.
    panics: AtomicU64,
    /// Set by [`ShardPool::kill_shard`]; the worker exits at its next
    /// batch boundary, leaving queued jobs in the ring. The driver's
    /// `Release` store pairs with the worker's `Acquire` load.
    killed: AtomicBool,
}

struct Worker<S: Stage> {
    jobs: Producer<Work<S::Job>>,
    out: Consumer<Output<S>>,
    /// `None` once the worker was killed and reaped.
    handle: Option<JoinHandle<S::Stats>>,
    health: Arc<Health>,
}

/// One shard: its current worker plus the ledger that outlives worker
/// generations.
struct Shard<S: Stage> {
    worker: Worker<S>,
    submitted: u64,
    /// Outputs drained from this shard (verdicts and panic discards).
    returned: u64,
    lost: u64,
    respawns: u64,
    /// Stats of killed-and-reaped workers.
    retired: S::Stats,
}

type Factory<S> = Arc<dyn Fn(usize) -> S + Send + Sync>;

/// `n` shards of one [`Stage`], each on its own worker thread. See the
/// module docs for the contract.
pub struct ShardPool<S: Stage> {
    shards: Vec<Shard<S>>,
    make: Factory<S>,
    registry: Option<Registry>,
    queue_cap: usize,
    free_bufs: Vec<Vec<u8>>,
    submit_cursor: usize,
    drain_cursor: usize,
    /// The driver-side counters (steering, sheds, panic discards); the
    /// rest of the snapshot is filled in at shutdown.
    ledger: PoolSnapshot<S::Stats>,
}

impl<S: Stage> ShardPool<S> {
    /// Spawns `n` workers with rings of `queue_cap` jobs. `make` builds
    /// (and, after a panic or kill, rebuilds) the stage of a shard; it
    /// runs on worker threads, hence `Send + Sync + 'static`. Only
    /// [`Stage::process`] is supervised: a panic in `make` or
    /// [`Stage::stats`] kills the worker thread, and the next submit to
    /// or flush of that shard panics instead of waiting on it.
    pub fn new(
        n: usize,
        queue_cap: usize,
        make: impl Fn(usize) -> S + Send + Sync + 'static,
    ) -> Self {
        Self::build(n, queue_cap, Arc::new(make), None)
    }

    /// Like [`Self::new`], but each shard's stage registers its telemetry
    /// as shard `<NAME><i>` in `registry`, and [`Self::shutdown`] adds the
    /// pool's steering, shed and supervision counters to it.
    pub fn with_telemetry(
        n: usize,
        queue_cap: usize,
        registry: &Registry,
        make: impl Fn(usize) -> S + Send + Sync + 'static,
    ) -> Self {
        Self::build(n, queue_cap, Arc::new(make), Some(registry.clone()))
    }

    fn build(n: usize, queue_cap: usize, make: Factory<S>, registry: Option<Registry>) -> Self {
        assert!(n >= 1);
        let mut pool = Self {
            shards: Vec::with_capacity(n),
            make,
            registry,
            queue_cap,
            free_bufs: Vec::new(),
            submit_cursor: 0,
            drain_cursor: 0,
            ledger: PoolSnapshot { shards: n, ..PoolSnapshot::default() },
        };
        for i in 0..n {
            let worker = pool.spawn(i, 0);
            let retired = S::Stats::default();
            pool.shards.push(Shard {
                worker,
                submitted: 0,
                returned: 0,
                lost: 0,
                respawns: 0,
                retired,
            });
        }
        pool
    }

    fn spawn(&self, shard: usize, panics: u64) -> Worker<S> {
        let (jobs, jq) = ring(self.queue_cap);
        let (oq, out) = ring(self.queue_cap);
        let health = Arc::new(Health { panics: AtomicU64::new(panics), ..Health::default() });
        let (make, registry, h) =
            (Arc::clone(&self.make), self.registry.clone(), Arc::clone(&health));
        let handle = std::thread::spawn(move || run_worker(shard, make, registry, h, jq, oq));
        Worker { jobs, out, handle: Some(handle), health }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Non-blocking submit: enqueues on the owning shard or returns
    /// [`SubmitError::WouldBlock`] with the job. Never spins or yields —
    /// shed, drain-and-retry, or hold is the caller's decision. A shard
    /// that was killed and not yet respawned is respawned first. Panics
    /// if the owning shard's worker died outside its supervised region.
    pub fn try_submit(&mut self, job: S::Job, now: Instant) -> Result<(), SubmitError<S::Job>> {
        let n = self.shards.len();
        let (i, steered) = match S::steer(&job) {
            Some(res_id) => (shard_index(res_id, n), true),
            None => {
                let i = self.submit_cursor % n;
                self.submit_cursor = self.submit_cursor.wrapping_add(1);
                (i, false)
            }
        };
        if self.shards[i].worker.handle.is_none() {
            self.respawn_shard(i);
        }
        match self.shards[i].worker.jobs.try_send(Work { job, now }) {
            Ok(()) => {
                self.shards[i].submitted += 1;
                if steered {
                    self.ledger.steered += 1;
                } else {
                    self.ledger.unsteered += 1;
                }
                Ok(())
            }
            Err(TrySendError::Full(w)) => Err(SubmitError::WouldBlock(w.job)),
            // Only a dead worker drops its end of the ring.
            Err(TrySendError::Closed(_)) => panic!("{}", died(i)),
        }
    }

    /// Class-aware submit: on a full ring, a best-effort job is shed
    /// (counted, buffers recycled); a reserved or control job is never
    /// shed — the driver drains outputs into `out`, so the worker can
    /// make progress, and retries until the job is accepted.
    pub fn submit(
        &mut self,
        job: S::Job,
        class: TrafficClass,
        now: Instant,
        out: &mut Vec<Output<S>>,
    ) -> SubmitVerdict {
        let mut job = job;
        loop {
            match self.try_submit(job, now) {
                Ok(()) => return SubmitVerdict::Enqueued,
                Err(SubmitError::WouldBlock(j)) if class == TrafficClass::BestEffort => {
                    self.ledger.shed_best_effort += 1;
                    S::recycle(j, &mut self.free_bufs);
                    return SubmitVerdict::Shed;
                }
                Err(SubmitError::WouldBlock(j)) => {
                    if self.try_drain(out, usize::MAX) == 0 {
                        std::thread::yield_now();
                    }
                    job = j;
                }
            }
        }
    }

    /// A recycled buffer from the freelist (empty; capacity retained).
    pub fn buffer(&mut self) -> Vec<u8> {
        self.free_bufs.pop().unwrap_or_default()
    }

    /// Returns a drained output's buffers to the freelist.
    pub fn recycle(&mut self, output: Output<S>) {
        S::recycle(output.job, &mut self.free_bufs);
    }

    fn accept(&mut self, shard: usize, output: Output<S>, out: &mut Vec<Output<S>>) {
        self.shards[shard].returned += 1;
        if matches!(output.outcome, Outcome::PanicDiscard) {
            self.ledger.panic_discarded += 1;
        }
        out.push(output);
    }

    /// Collects at most `max` outputs round-robin across shards without
    /// blocking.
    pub fn try_drain(&mut self, out: &mut Vec<Output<S>>, max: usize) -> usize {
        let n = self.shards.len();
        let (mut got, mut idle) = (0, 0);
        while got < max && idle < n {
            let i = self.drain_cursor;
            self.drain_cursor = (i + 1) % n;
            match self.shards[i].worker.out.try_recv() {
                Some(output) => {
                    self.accept(i, output, out);
                    got += 1;
                    idle = 0;
                }
                None => idle += 1,
            }
        }
        got
    }

    /// Blocks until every job submitted so far has come back, collecting
    /// the outputs into `out`. Panics if a shard still owing outputs
    /// has a worker that died outside its supervised region.
    pub fn flush(&mut self, out: &mut Vec<Output<S>>) {
        let pending = |s: &Shard<S>| s.returned + s.lost < s.submitted;
        while self.shards.iter().any(pending) {
            // A worker that finished before the drain below has nothing
            // left in flight, so if the drain gets nothing it never will.
            let dead = self.shards.iter().position(|s| {
                pending(s) && s.worker.handle.as_ref().is_some_and(JoinHandle::is_finished)
            });
            if self.try_drain(out, usize::MAX) == 0 {
                if let Some(i) = dead {
                    panic!("{}", died(i));
                }
                std::thread::yield_now();
            }
        }
    }

    /// Health of every shard: heartbeat, contained panics, thread
    /// liveness, queue depth.
    pub fn health(&self) -> Vec<ShardHealthReport> {
        self.shards
            .iter()
            .map(|s| ShardHealthReport {
                heartbeat: s.worker.health.heartbeat.load(Ordering::Relaxed),
                panics: s.worker.health.panics.load(Ordering::Relaxed),
                alive: s.worker.handle.as_ref().is_some_and(|h| !h.is_finished()),
                queued: s.worker.jobs.len(),
            })
            .collect()
    }

    /// Drains `shard`'s outputs into `out` until its worker exits, then
    /// joins it. A worker that died outside the supervised region yields
    /// default stats rather than wedging the driver.
    fn reap(&mut self, shard: usize, out: &mut Vec<Output<S>>) -> S::Stats {
        let Some(handle) = self.shards[shard].worker.handle.take() else {
            return S::Stats::default();
        };
        loop {
            let finished = handle.is_finished();
            while let Some(output) = self.shards[shard].worker.out.try_recv() {
                self.accept(shard, output, out);
            }
            if finished {
                break;
            }
            std::thread::yield_now();
        }
        handle.join().unwrap_or_default()
    }

    /// Kills `shard`'s worker outright (the crash-kill of the recovery
    /// experiment): the worker stops at its next batch boundary, its
    /// outputs are drained into `out`, and the jobs still queued are
    /// counted as `lost_to_kill`. [`Self::respawn_shard`] — or the next
    /// submit to the shard — brings it back.
    pub fn kill_shard(&mut self, shard: usize, out: &mut Vec<Output<S>>) {
        let w = &self.shards[shard].worker;
        if w.handle.is_none() {
            return;
        }
        w.health.killed.store(true, Ordering::Release);
        w.jobs.close();
        let stats = self.reap(shard, out);
        let s = &mut self.shards[shard];
        // The worker has been joined, so the ring's length is exact.
        s.lost += s.worker.jobs.len() as u64;
        s.retired.merge(&stats);
    }

    /// Respawns a killed shard with fresh rings and a stage rebuilt from
    /// the factory. No-op if the shard is alive.
    pub fn respawn_shard(&mut self, shard: usize) {
        if self.shards[shard].worker.handle.is_some() {
            return;
        }
        let panics = self.shards[shard].worker.health.panics.load(Ordering::Relaxed);
        self.shards[shard].worker = self.spawn(shard, panics);
        self.shards[shard].respawns += 1;
    }

    /// Shuts the pool down: closes the job rings, drains every remaining
    /// output into `out` (so no worker can stay blocked on a full output
    /// ring), joins the workers, and returns the merged snapshot.
    pub fn shutdown(mut self, out: &mut Vec<Output<S>>) -> PoolSnapshot<S::Stats> {
        for s in &self.shards {
            s.worker.jobs.close();
        }
        // Reap every worker first: the outputs drained here count into
        // the driver's ledger too.
        let stats: Vec<S::Stats> = (0..self.shards.len()).map(|i| self.reap(i, out)).collect();
        let mut snap = std::mem::take(&mut self.ledger);
        for (s, stats) in self.shards.iter().zip(stats) {
            let mut shard_stats = s.retired;
            shard_stats.merge(&stats);
            snap.stats.merge(&shard_stats);
            snap.submitted += s.submitted;
            snap.processed += s.returned;
            snap.lost_to_kill += s.lost;
            snap.panics += s.worker.health.panics.load(Ordering::Relaxed);
            snap.respawns += s.respawns;
            snap.per_shard.push(ShardSnapshot { submitted: s.submitted, stats: shard_stats });
        }
        snap.processed -= snap.panic_discarded;
        snap.stage_processed = S::processed(&snap.stats);
        if let Some(registry) = &self.registry {
            export(registry, S::NAME, &snap);
        }
        snap
    }
}

fn died(shard: usize) -> String {
    format!("shard {shard}'s worker died outside its supervised region")
}

/// Adds a finished run's pool counters to `registry`. The driver counts
/// in plain `u64`s, so the hot path never touches a shared cell.
fn export<T>(registry: &Registry, name: &str, snap: &PoolSnapshot<T>) {
    let dep = Stability::PathDependent;
    let pool = registry.shard(&format!("{name}-pool"));
    let counters = [
        (
            format!("colibri_{name}_steered_total"),
            "jobs steered to a shard by reservation-ID hash",
            snap.steered,
        ),
        (
            format!("colibri_{name}_unsteered_total"),
            "jobs sprayed round-robin (no readable reservation ID)",
            snap.unsteered,
        ),
        (
            "colibri_dataplane_shed_best_effort_total".into(),
            "best-effort jobs shed by backpressure (dropped before any ring)",
            snap.shed_best_effort,
        ),
        (
            "colibri_dataplane_shed_reserved_total".into(),
            "reserved-class jobs shed by backpressure (policy target: zero)",
            snap.shed_reserved,
        ),
        (
            "colibri_dataplane_panic_discarded_total".into(),
            "jobs returned unprocessed because their batch's worker panicked",
            snap.panic_discarded,
        ),
        (
            "colibri_dataplane_shard_panics_total".into(),
            "worker panics contained by the supervisor (stage rebuilds)",
            snap.panics,
        ),
        (
            "colibri_dataplane_shard_respawns_total".into(),
            "shard workers respawned after a kill",
            snap.respawns,
        ),
    ];
    for (metric, help, value) in counters {
        pool.counter(&metric, dep, help).add(value);
    }
    for (i, shard) in snap.per_shard.iter().enumerate() {
        registry
            .shard(&format!("{name}{i}"))
            .counter(
                &format!("colibri_{name}_shard_submitted_total"),
                dep,
                "jobs the dispatcher submitted to this shard",
            )
            .add(shard.submitted);
    }
}

/// The worker loop. Per drained batch, timestamp-contiguous groups run
/// through [`Stage::process`] under `catch_unwind`. A panic folds the
/// stats taken *before* the group (no torn counts leak into the ledger),
/// rebuilds the stage, and returns the group's jobs as panic discards.
fn run_worker<S: Stage>(
    shard: usize,
    make: Factory<S>,
    registry: Option<Registry>,
    health: Arc<Health>,
    mut jobs: Consumer<Work<S::Job>>,
    mut out: Producer<Output<S>>,
) -> S::Stats {
    let label = format!("{}{shard}", S::NAME);
    let build = || {
        let mut stage = make(shard);
        if let Some(reg) = &registry {
            stage.attach_telemetry(reg, &label);
        }
        stage
    };
    let mut stage = build();
    // Stats of stages discarded after a contained panic.
    let mut retired = S::Stats::default();
    let mut batch = Vec::with_capacity(WORKER_BATCH);
    let mut group = Vec::with_capacity(WORKER_BATCH);
    let mut verdicts = Vec::with_capacity(WORKER_BATCH);
    'run: while !health.killed.load(Ordering::Acquire) && jobs.recv_many(&mut batch, WORKER_BATCH) {
        health.heartbeat.fetch_add(1, Ordering::Relaxed);
        while !batch.is_empty() {
            let now = batch[0].now;
            let end = batch.iter().position(|w| w.now != now).unwrap_or(batch.len());
            group.extend(batch.drain(..end).map(|w| w.job));
            let before = stage.stats();
            verdicts.clear();
            let ok =
                catch_unwind(AssertUnwindSafe(|| stage.process(&mut group, now, &mut verdicts)))
                    .is_ok();
            if !ok {
                health.panics.fetch_add(1, Ordering::Relaxed);
                retired.merge(&before);
                stage = build();
                verdicts.clear();
            }
            let mut done = verdicts.drain(..);
            for job in group.drain(..) {
                let outcome = done.next().map_or(Outcome::PanicDiscard, Outcome::Done);
                if out.send(Output { outcome, job }).is_err() {
                    // The driver is gone; nothing left to report to.
                    break 'run;
                }
            }
        }
    }
    retired.merge(&stage.stats());
    retired
}

// ---------------------------------------------------------------------------
// The two production stages
// ---------------------------------------------------------------------------

/// Counters one router shard reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterShardStats {
    /// Verdict counters.
    pub router: RouterStats,
    /// The shard's private crypto-cache counters.
    pub cache: CryptoCacheStats,
}

impl Merge for RouterShardStats {
    fn merge(&mut self, other: &Self) {
        self.router.merge(&other.router);
        self.cache.merge(&other.cache);
    }
}

/// The router stage: a job is one packet buffer, validated in place
/// (`curr_hop` advanced on forward) by [`BorderRouter::process_batch`].
impl Stage for BorderRouter {
    type Job = Vec<u8>;
    type Verdict = RouterVerdict;
    type Stats = RouterShardStats;
    const NAME: &'static str = "router";

    fn steer(pkt: &Vec<u8>) -> Option<ResId> {
        colibri_wire::peek_res_id(pkt)
    }

    fn process(&mut self, pkts: &mut [Vec<u8>], now: Instant, verdicts: &mut Vec<RouterVerdict>) {
        let mut refs: Vec<&mut [u8]> = pkts.iter_mut().map(Vec::as_mut_slice).collect();
        verdicts.extend(self.process_batch(&mut refs, now));
    }

    fn stats(&self) -> RouterShardStats {
        RouterShardStats { router: self.stats, cache: self.cache_stats() }
    }

    fn processed(stats: &RouterShardStats) -> u64 {
        stats.router.processed()
    }

    fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        BorderRouter::attach_telemetry(self, registry, shard);
    }

    fn recycle(mut pkt: Vec<u8>, free: &mut Vec<Vec<u8>>) {
        pkt.clear();
        free.push(pkt);
    }
}

/// Work for a gateway shard.
#[derive(Debug)]
pub enum GatewayJob {
    /// Install (or refresh) a reservation. It shares the packet FIFO, so
    /// a later stamp of the same reservation always sees it.
    Install(Box<OwnedEer>),
    /// Stamp `payload` over `res_id` into `bytes` (a recycled buffer;
    /// cleared on error).
    Stamp {
        /// The sending host.
        src_host: HostAddr,
        /// The reservation the packet is sent over.
        res_id: ResId,
        /// The payload, returned for recycling.
        payload: Vec<u8>,
        /// The serialized packet once stamped.
        bytes: Vec<u8>,
    },
}

/// What a gateway shard did with one [`GatewayJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayVerdict {
    /// The reservation was installed.
    Installed,
    /// The first-hop egress interface, or why the packet was not stamped.
    Stamped(Result<InterfaceId, GatewayError>),
}

/// Counters one gateway shard reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayShardStats {
    /// Stamp outcome counters.
    pub gateway: GatewayStats,
    /// Qdisc counters. Each shard owns a private hierarchy, so the merge
    /// is the only pool-wide view.
    pub qos: QdiscStats,
}

impl Merge for GatewayShardStats {
    fn merge(&mut self, other: &Self) {
        self.gateway.merge(&other.gateway);
        self.qos.merge(&other.qos);
    }
}

/// The gateway stage: installs and allocation-free stamping through
/// [`Gateway::process_into`].
impl Stage for Gateway {
    type Job = GatewayJob;
    type Verdict = GatewayVerdict;
    type Stats = GatewayShardStats;
    const NAME: &'static str = "gateway";

    fn steer(job: &GatewayJob) -> Option<ResId> {
        Some(match job {
            GatewayJob::Install(eer) => eer.key.res_id,
            GatewayJob::Stamp { res_id, .. } => *res_id,
        })
    }

    fn process(
        &mut self,
        jobs: &mut [GatewayJob],
        now: Instant,
        verdicts: &mut Vec<GatewayVerdict>,
    ) {
        for job in jobs {
            verdicts.push(match job {
                GatewayJob::Install(eer) => {
                    self.install(eer, now);
                    GatewayVerdict::Installed
                }
                GatewayJob::Stamp { src_host, res_id, payload, bytes } => {
                    let result = self.process_into(*src_host, *res_id, payload, now, bytes);
                    if result.is_err() {
                        bytes.clear();
                    }
                    GatewayVerdict::Stamped(result)
                }
            });
        }
    }

    fn stats(&self) -> GatewayShardStats {
        GatewayShardStats { gateway: self.stats, qos: self.qdisc.stats() }
    }

    fn processed(stats: &GatewayShardStats) -> u64 {
        let g = &stats.gateway;
        g.installs + g.forwarded + g.rate_limited + g.rejected
    }

    fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        Gateway::attach_telemetry(self, registry, shard);
    }

    fn recycle(job: GatewayJob, free: &mut Vec<Vec<u8>>) {
        if let GatewayJob::Stamp { mut payload, mut bytes, .. } = job {
            bytes.clear();
            payload.clear();
            free.push(bytes);
            free.push(payload);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gateway::GatewayConfig;
    use crate::router::RouterConfig;
    use colibri_base::{Bandwidth, Duration, IsdAsId, ReservationKey};
    use colibri_crypto::{Key, SecretValueGen};
    use colibri_ctrl::OwnedEerVersion;
    use colibri_wire::mac::hop_auth;
    use colibri_wire::{EerInfo, HopField, ResInfo};
    use crate::faulty::{Faulty, MARKER};

    const MASTER: [u8; 16] = [9u8; 16];

    pub(crate) fn owned(res_id: u32) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
            eer_info: EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) },
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
            versions: vec![OwnedEerVersion {
                ver: 0,
                bw: Bandwidth::from_mbps(100),
                exp: Instant::from_secs(100),
                hop_auths: vec![Key([1; 16]), Key([2; 16])],
            }],
        }
    }

    /// A gateway with one installed reservation whose packets verify at
    /// [`router_pool`] routers.
    pub(crate) fn auth_gateway(res_id: u32, now: Instant) -> Gateway {
        let epoch = colibri_crypto::Epoch::containing(now);
        let k_i = SecretValueGen::new(&MASTER).secret_value(epoch).cmac();
        // Must match what `Gateway::install` derives from the OwnedEer,
        // or the stamped HVF will not verify.
        let res_info = ResInfo {
            src_as: IsdAsId::new(1, 10),
            res_id: ResId(res_id),
            bw: colibri_base::BwClass::from_bandwidth_ceil(Bandwidth::from_mbps(100)),
            exp_t: Instant::from_secs(90),
            ver: 0,
        };
        let eer_info = EerInfo { src_host: HostAddr(7), dst_host: HostAddr(8) };
        let hop = HopField::new(3, 4);
        let sigma = hop_auth(&k_i, &res_info, &eer_info, hop);
        let mut eer = owned(res_id);
        eer.versions[0].hop_auths = vec![sigma, Key([0; 16])];
        eer.versions[0].exp = Instant::from_secs(90);
        eer.hop_fields = vec![hop, HopField::new(5, 0)];
        let mut gw = gateway(Duration::from_secs(3600));
        gw.install(&eer, now);
        gw
    }

    pub(crate) fn gateway(burst: Duration) -> Gateway {
        Gateway::new(GatewayConfig { burst, ..Default::default() })
    }

    pub(crate) fn router() -> BorderRouter {
        let cfg = RouterConfig {
            freshness: Duration::from_secs(3600),
            skew: Duration::from_secs(3600),
            monitoring: false,
            ..RouterConfig::default()
        };
        BorderRouter::new(IsdAsId::new(1, 10), &MASTER, cfg)
    }

    pub(crate) fn router_pool(n: usize, cap: usize) -> ShardPool<BorderRouter> {
        ShardPool::new(n, cap, |_| router())
    }

    pub(crate) fn install(res_id: u32) -> GatewayJob {
        GatewayJob::Install(Box::new(owned(res_id)))
    }

    pub(crate) fn stamp(res_id: u32, payload: Vec<u8>, bytes: Vec<u8>) -> GatewayJob {
        GatewayJob::Stamp { src_host: HostAddr(7), res_id: ResId(res_id), payload, bytes }
    }

    pub(crate) fn is_stamped(o: &Output<Gateway>) -> bool {
        matches!(o.outcome, Outcome::Done(GatewayVerdict::Stamped(Ok(_))))
    }

    pub(crate) fn is_forward(o: &Output<BorderRouter>) -> bool {
        matches!(o.outcome, Outcome::Done(RouterVerdict::Forward(InterfaceId(4))))
    }

    /// Reserved-class submit: never shed, drains `out` while it waits.
    pub(crate) fn send<S: Stage>(
        pool: &mut ShardPool<S>,
        job: S::Job,
        now: Instant,
        out: &mut Vec<Output<S>>,
    ) {
        let v = pool.submit(job, TrafficClass::ColibriData, now, out);
        assert_eq!(v, SubmitVerdict::Enqueued, "reserved traffic must never shed");
    }

    /// A router that unwinds on a [`MARKER`] frame.
    pub(crate) fn faulty_router() -> Faulty<BorderRouter> {
        Faulty { inner: router(), trip: |pkt| pkt == MARKER }
    }

    #[test]
    fn gateway_buffers_recycle_without_allocation() {
        let now = Instant::from_secs(1);
        let mut pg = ShardPool::new(1, 8, |_| gateway(Duration::from_millis(50)));
        let mut outs = Vec::new();
        send(&mut pg, install(1), now, &mut outs);
        pg.flush(&mut outs);
        let o = outs.pop().unwrap();
        pg.recycle(o); // an install carries no buffers
        assert!(pg.free_bufs.is_empty());
        for round in 0..5 {
            let bytes = pg.buffer();
            send(&mut pg, stamp(1, vec![round; 32], bytes), now, &mut outs);
            pg.flush(&mut outs);
            assert_eq!(outs.len(), 1);
            let o = outs.pop().unwrap();
            assert!(is_stamped(&o));
            pg.recycle(o);
            // Each round pops one recycled buffer for the packet and
            // returns two (packet + payload); payloads here are fresh, so
            // the freelist grows by exactly one per round after the first.
            assert_eq!(pg.free_bufs.len(), round as usize + 2);
        }
        pg.shutdown(&mut outs);
    }

    #[test]
    fn steering_pins_reservations_and_counts_imbalance() {
        let now = Instant::from_secs(50);
        let reg = Registry::new();
        let mut pool = ShardPool::with_telemetry(4, 64, &reg, |_| router());
        // Build minimally valid *headers* for three reservations (the
        // packets won't verify, but steering only reads the header).
        let mut gw = gateway(Duration::from_secs(3600));
        for r in [1u32, 2, 3] {
            gw.install(&owned(r), now);
        }
        let mut outs = Vec::new();
        let mut by_shard = [0u64; 4];
        for i in 0..30u32 {
            let r = ResId(1 + i % 3);
            let pkt = gw.process(HostAddr(7), r, b"data", now).unwrap();
            by_shard[shard_index(r, 4)] += 1;
            send(&mut pool, pkt.bytes, now, &mut outs);
        }
        // Garbage falls back round-robin: shards 0 and 1 get one each.
        send(&mut pool, vec![0u8; 4], now, &mut outs);
        send(&mut pool, vec![0u8; 4], now, &mut outs);
        by_shard[0] += 1;
        by_shard[1] += 1;

        let snap = pool.shutdown(&mut outs);
        assert_eq!(outs.len(), 32);
        assert_eq!(snap.steered, 30);
        assert_eq!(snap.unsteered, 2);
        assert_eq!(snap.per_shard.len(), 4);
        // Each reservation's 10 packets all landed on its hash shard.
        for (s, expected) in by_shard.iter().enumerate() {
            assert_eq!(snap.per_shard[s].submitted, *expected, "shard {s}");
        }
        assert!(snap.steering_imbalance() >= 1.0);
        // Telemetry absorbed the dispatch counters.
        let scrape = reg.snapshot();
        assert_eq!(scrape.total("colibri_router_steered_total"), 30);
        assert_eq!(scrape.total("colibri_router_unsteered_total"), 2);
        assert_eq!(scrape.total("colibri_router_shard_submitted_total"), 32);
    }

    #[test]
    fn would_block_instead_of_spinning() {
        let now = Instant::from_secs(50);
        let mut p = router_pool(1, 2);
        // Stall the worker by never draining; with capacity 2 the ring
        // must eventually report WouldBlock instead of blocking us.
        let mut blocked = false;
        for _ in 0..10_000 {
            if let Err(SubmitError::WouldBlock(pkt)) = p.try_submit(vec![0u8; 8], now) {
                assert_eq!(pkt, vec![0u8; 8], "buffer returned intact");
                blocked = true;
                break;
            }
        }
        assert!(blocked, "submit never applied backpressure");
        let mut outs = Vec::new();
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced());
    }

    #[test]
    fn reserved_submit_drains_instead_of_deadlocking() {
        // 16× the queue capacity, never drained by the caller: the worker
        // fills its output ring and blocks, so only `submit` draining into
        // `outs` lets the job ring empty.
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut pool = router_pool(1, 4);
        let mut outs = Vec::new();
        for _ in 0..64 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"data", now).unwrap();
            send(&mut pool, pkt.bytes, now, &mut outs);
        }
        let snap = pool.shutdown(&mut outs);
        assert_eq!(outs.len(), 64, "every packet comes back");
        assert_eq!(outs.iter().filter(|o| is_forward(o)).count(), 64);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn balanced_holds_the_stage_counters_to_the_drained_verdicts() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = ShardPool::new(1, 64, |_| faulty_router());
        for _ in 0..20 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"data", now).unwrap();
            p.try_submit(pkt.bytes, now).unwrap();
        }
        p.try_submit(MARKER.to_vec(), now).unwrap();
        // Nothing is drained before shutdown, so the panic discards are
        // counted from the outputs `shutdown` itself drains.
        let mut outs = Vec::new();
        let mut snap = p.shutdown(&mut outs);
        assert!(snap.panic_discarded >= 1, "{snap:?}");
        assert_eq!(snap.processed + snap.panic_discarded, 21);
        assert_eq!(snap.stage_processed, snap.processed);
        assert!(snap.balanced(), "{snap:?}");
        // A stage count that strays from the drained verdicts (a torn
        // count, a dead worker's stats never merged) unbalances the
        // ledger even though every job came back.
        snap.stage_processed += 1;
        assert!(!snap.balanced());
    }

    #[test]
    fn worker_dying_outside_supervision_panics_instead_of_hanging() {
        // The first build succeeds; the rebuild after the contained panic
        // panics outside the supervised region and takes the thread down
        // with the marker still unanswered.
        let builds = Arc::new(AtomicU64::new(0));
        let b = Arc::clone(&builds);
        let mut p = ShardPool::new(1, 4, move |_| {
            if b.fetch_add(1, Ordering::Relaxed) > 0 {
                std::panic::resume_unwind(Box::new("factory fault"));
            }
            faulty_router()
        });
        let now = Instant::from_secs(50);
        let mut outs = Vec::new();
        send(&mut p, MARKER.to_vec(), now, &mut outs);
        let flushed = catch_unwind(AssertUnwindSafe(|| p.flush(&mut outs)));
        assert!(flushed.is_err(), "flush must not wait on a dead worker");
        assert!(!p.health()[0].alive);
        let submitted = catch_unwind(AssertUnwindSafe(|| p.try_submit(vec![0u8; 8], now)));
        assert!(submitted.is_err(), "submit must not report a dead shard as full");
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shed_policy_drops_best_effort_not_reserved() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = router_pool(1, 4);
        let mut outs = Vec::new();
        let mut reserved = 0u64;
        let mut be_offered = 0u64;
        for i in 0..400 {
            // 4× best-effort flood interleaved with reserved packets.
            for _ in 0..4 {
                // Junk with an unparseable header: round-robin, then
                // ParseError at the shard. Class: best-effort.
                p.submit(vec![0xEE; 24], TrafficClass::BestEffort, now, &mut outs);
                be_offered += 1;
            }
            let pkt = gw.process(HostAddr(7), ResId(1), &[i as u8; 16], now).unwrap();
            send(&mut p, pkt.bytes, now, &mut outs);
            reserved += 1;
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.shed_reserved, 0);
        assert_eq!(snap.stats.router.forwarded, reserved, "all reserved packets forwarded");
        // Everything offered is accounted: accepted + shed == offered.
        assert_eq!(snap.submitted + snap.shed_best_effort, be_offered + reserved);
    }
}
