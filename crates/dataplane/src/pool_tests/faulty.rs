//! A fault-injecting test stage, shared by the pool's unit tests and the
//! adversarial integration suite (each includes this file with `#[path]`;
//! the including module must have `Stage` in scope).

use super::Stage;
use colibri_base::{Instant, ResId};
use colibri_telemetry::Registry;

/// The payload [`Faulty`] stages are usually set to unwind on.
pub const MARKER: &[u8] = b"panic marker";

/// A stage that panics when a batch holds a job `trip` matches: the "one
/// bad packet takes the worker down" scenario, unwinding inside the
/// pool's supervised region (via `resume_unwind`, so the panic hook stays
/// quiet).
pub struct Faulty<S: Stage> {
    /// The stage doing the real work.
    pub inner: S,
    /// Which jobs take the worker down.
    pub trip: fn(&S::Job) -> bool,
}

impl<S: Stage> Stage for Faulty<S> {
    type Job = S::Job;
    type Verdict = S::Verdict;
    type Stats = S::Stats;
    const NAME: &'static str = S::NAME;

    fn steer(job: &S::Job) -> Option<ResId> {
        S::steer(job)
    }

    fn process(&mut self, jobs: &mut [S::Job], now: Instant, verdicts: &mut Vec<S::Verdict>) {
        if jobs.iter().any(self.trip) {
            std::panic::resume_unwind(Box::new("panic marker"));
        }
        self.inner.process(jobs, now, verdicts);
    }

    fn stats(&self) -> S::Stats {
        self.inner.stats()
    }

    fn processed(stats: &S::Stats) -> u64 {
        S::processed(stats)
    }

    fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.inner.attach_telemetry(registry, shard);
    }

    fn recycle(job: S::Job, free: &mut Vec<Vec<u8>>) {
        S::recycle(job, free);
    }
}
