//! Timing wrappers for the traced run. Each forwards every hook of the wrapped
//! object unchanged and only adds clock reads around the calls, so a traced run
//! makes the same decisions as an untraced one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grass_core::{
    Action, BoxedPolicy, JobOutcome, JobSpec, JobView, PolicyFactory, SpeculationPolicy, TaskId,
};
use grass_fleet::CellRunner;

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Time and call counts of the policy hooks of one simulation. The counters are
/// statistics that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct PolicyClock {
    pub choose_ns: AtomicU64,
    pub choose_calls: AtomicU64,
    pub choose_accepts: AtomicU64,
    pub on_job_complete_ns: AtomicU64,
    /// `on_job_start` and `on_task_complete`.
    pub other_hooks_ns: AtomicU64,
}

impl PolicyClock {
    fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Seconds spent inside any policy hook.
    pub fn hooks_s(&self) -> f64 {
        (Self::read(&self.choose_ns)
            + Self::read(&self.on_job_complete_ns)
            + Self::read(&self.other_hooks_ns)) as f64
            / 1e9
    }
}

/// A [`PolicyFactory`] whose policies report their hook times to a clock.
pub struct TimedFactory<'a> {
    inner: &'a dyn PolicyFactory,
    clock: Arc<PolicyClock>,
}

impl<'a> TimedFactory<'a> {
    pub fn new(inner: &'a dyn PolicyFactory) -> Self {
        TimedFactory {
            inner,
            clock: Arc::new(PolicyClock::default()),
        }
    }

    pub fn clock(&self) -> &PolicyClock {
        &self.clock
    }
}

impl PolicyFactory for TimedFactory<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create(&self, job: &JobSpec) -> BoxedPolicy {
        Box::new(TimedPolicy {
            inner: self.inner.create(job),
            clock: Arc::clone(&self.clock),
        })
    }
}

struct TimedPolicy {
    inner: BoxedPolicy,
    clock: Arc<PolicyClock>,
}

impl SpeculationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_start(&mut self, view: &JobView) {
        let started = Instant::now();
        self.inner.on_job_start(view);
        PolicyClock::add(&self.clock.other_hooks_ns, elapsed_ns(started));
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        let started = Instant::now();
        let action = self.inner.choose(view);
        PolicyClock::add(&self.clock.choose_ns, elapsed_ns(started));
        PolicyClock::add(&self.clock.choose_calls, 1);
        if action.is_some() {
            PolicyClock::add(&self.clock.choose_accepts, 1);
        }
        action
    }

    fn on_task_complete(&mut self, view: &JobView, task: TaskId) {
        let started = Instant::now();
        self.inner.on_task_complete(view, task);
        PolicyClock::add(&self.clock.other_hooks_ns, elapsed_ns(started));
    }

    fn on_job_complete(&mut self, outcome: &JobOutcome) {
        let started = Instant::now();
        self.inner.on_job_complete(outcome);
        PolicyClock::add(&self.clock.on_job_complete_ns, elapsed_ns(started));
    }
}

/// A [`CellRunner`] that times cell execution and the learned-state exchange.
pub struct TimedRunner<R> {
    inner: R,
    cell_ns: AtomicU64,
    sync_ns: AtomicU64,
}

impl<R: CellRunner> TimedRunner<R> {
    pub fn new(inner: R) -> Self {
        TimedRunner {
            inner,
            cell_ns: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Seconds spent running cells.
    pub fn cell_s(&self) -> f64 {
        PolicyClock::read(&self.cell_ns) as f64 / 1e9
    }

    /// Seconds spent producing and absorbing learned-state snapshots.
    pub fn sync_s(&self) -> f64 {
        PolicyClock::read(&self.sync_ns) as f64 / 1e9
    }
}

impl<R: CellRunner> CellRunner for TimedRunner<R> {
    fn run(&self, cell: usize, spec: &str) -> Result<String, String> {
        let started = Instant::now();
        let out = self.inner.run(cell, spec);
        PolicyClock::add(&self.cell_ns, elapsed_ns(started));
        out
    }

    fn snapshot(&self) -> Option<String> {
        let started = Instant::now();
        let out = self.inner.snapshot();
        PolicyClock::add(&self.sync_ns, elapsed_ns(started));
        out
    }

    fn absorb(&self, snapshots: &str) {
        let started = Instant::now();
        self.inner.absorb(snapshots);
        PolicyClock::add(&self.sync_ns, elapsed_ns(started));
    }
}
