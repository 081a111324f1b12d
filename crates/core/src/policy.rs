//! The policy interface: what the cluster scheduler asks a per-job speculation policy.

use crate::job::{JobSpec, JobView};
use crate::outcome::JobOutcome;
use crate::task::{TaskId, Time};

/// What kind of copy an action launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// First copy of a task that is not currently running.
    Launch,
    /// Additional (speculative) copy of a task that already has at least one running
    /// copy.
    Speculate,
}

/// A scheduling decision returned by a policy: run one more copy of `task` on the free
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action {
    /// Which task to run a copy of.
    pub task: TaskId,
    /// Whether this is the task's first copy or a speculative duplicate.
    pub kind: ActionKind,
}

impl Action {
    /// Launch the first copy of an unscheduled task.
    pub fn launch(task: TaskId) -> Self {
        Action {
            task,
            kind: ActionKind::Launch,
        }
    }

    /// Launch a speculative copy of a running task.
    pub fn speculate(task: TaskId) -> Self {
        Action {
            task,
            kind: ActionKind::Speculate,
        }
    }

    /// Whether this action is a speculative duplicate.
    pub fn is_speculative(&self) -> bool {
        self.kind == ActionKind::Speculate
    }
}

/// Per-job speculation policy: given a view of the job's unfinished tasks, decide what
/// to run next on a freed slot.
///
/// This is the interface GS, RAS, GRASS, LATE, Mantri and the oracle all implement.
/// One policy instance is created per job (via a [`PolicyFactory`]), so policies are
/// free to keep per-job state (GRASS keeps its current mode and switch bookkeeping).
///
/// # Standing declines
///
/// Most offers are declined, and most declines repeat: a job that had nothing to run
/// on the last free slot usually has nothing to run on the next one either. A policy
/// can say so through [`decline_holds`](Self::decline_holds), and the simulator then
/// answers the offer with `None` itself instead of calling [`choose`](Self::choose).
/// The simulator asks only when the job's [`JobView`] is unchanged since the `None`
/// returned at `declined_at`, apart from
///
/// * `now` and `cluster_utilization`, and
/// * the time-driven fields of running tasks: `elapsed`, `progress`,
///   `progress_rate`, `trem` and `true_remaining`,
///
/// and when no other hook of the policy has been called since. In particular no copy
/// of the job was launched, finished or killed, and its `wave_width` is the same.
/// Returning `true` promises that `choose` would return `None` again on such a view
/// and would change no policy state. The default returns `false`, so a policy that
/// does not implement the hook is consulted on every offer.
pub trait SpeculationPolicy: Send {
    /// Short, stable policy name used in reports ("GRASS", "GS", "RAS", "LATE", …).
    fn name(&self) -> &str;

    /// Called once when the job becomes active (its arrival is processed).
    fn on_job_start(&mut self, _view: &JobView) {}

    /// Called whenever a slot allocated to this job is free. Return `Some(action)` to
    /// run one more copy, or `None` if the job has nothing useful to run right now
    /// (the slot is then offered to other jobs).
    fn choose(&mut self, view: &JobView) -> Option<Action>;

    /// Whether the `None` this policy returned at `declined_at` still holds at `now`
    /// (`now >= declined_at`), under the contract in the trait docs. `false`, the
    /// default, means "consult me again".
    fn decline_holds(&self, _declined_at: Time, _now: Time) -> bool {
        false
    }

    /// Called when one of the job's tasks completes (its first copy finishes).
    fn on_task_complete(&mut self, _view: &JobView, _task: TaskId) {}

    /// Called when the job finishes (deadline reached or error bound satisfied).
    /// GRASS uses this to feed its shared sample store.
    fn on_job_complete(&mut self, _outcome: &JobOutcome) {}
}

/// Boxed policy, the form in which the simulator stores per-job policies.
pub type BoxedPolicy = Box<dyn SpeculationPolicy>;

/// Factory that creates one [`SpeculationPolicy`] instance per job.
///
/// Factories are shared across the whole simulation run, so cross-job state (GRASS's
/// sample store, LATE's cluster-wide speculation cap) lives here.
pub trait PolicyFactory: Send + Sync {
    /// Name of the policy family this factory creates.
    fn name(&self) -> &str;

    /// Create the policy instance for `job`.
    fn create(&self, job: &JobSpec) -> BoxedPolicy;
}

/// Blanket helper: a closure `(job) -> BoxedPolicy` plus a name is a factory.
pub struct FnFactory<F> {
    name: String,
    f: F,
}

impl<F> FnFactory<F>
where
    F: Fn(&JobSpec) -> BoxedPolicy + Send + Sync,
{
    /// Wrap a closure as a [`PolicyFactory`].
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnFactory {
            name: name.into(),
            f,
        }
    }
}

impl<F> PolicyFactory for FnFactory<F>
where
    F: Fn(&JobSpec) -> BoxedPolicy + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self, job: &JobSpec) -> BoxedPolicy {
        (self.f)(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Bound;

    struct Noop;
    impl SpeculationPolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn choose(&mut self, _view: &JobView) -> Option<Action> {
            None
        }
    }

    #[test]
    fn action_constructors() {
        let a = Action::launch(TaskId(1));
        assert_eq!(a.kind, ActionKind::Launch);
        assert!(!a.is_speculative());
        let s = Action::speculate(TaskId(2));
        assert!(s.is_speculative());
    }

    #[test]
    fn policies_are_consulted_on_every_offer_by_default() {
        assert!(!Noop.decline_holds(0.0, 0.0));
        assert!(!Noop.decline_holds(1.0, 2.0));
    }

    #[test]
    fn fn_factory_creates_policies() {
        let factory = FnFactory::new("noop", |_job: &JobSpec| Box::new(Noop) as BoxedPolicy);
        assert_eq!(factory.name(), "noop");
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(5.0), vec![1.0]);
        let p = factory.create(&job);
        assert_eq!(p.name(), "noop");
    }
}
