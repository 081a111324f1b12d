//! Per-job runtime state: running copies, completed counters, estimation state, the
//! maintained [`TaskView`]s handed to policies and the final [`JobOutcome`].

use rand::Rng;

use grass_core::{
    degrade_estimate, AccuracyTracker, Bound, BoxedPolicy, EstimatorConfig, JobOutcome, JobSpec,
    JobView, TaskId, TaskSpec, TaskView, Time,
};

use crate::event::CopyId;
use crate::machine::SlotId;
use crate::stats::TimeWeighted;

/// One running copy of a task.
#[derive(Debug, Clone)]
pub struct CopyRuntime {
    /// Unique copy identifier (for stale-event detection).
    pub id: CopyId,
    /// Slot the copy occupies.
    pub slot: SlotId,
    /// Launch time.
    pub start: Time,
    /// Total runtime the copy needs on its slot.
    pub duration: Time,
    /// Whether this copy was launched as a speculative duplicate.
    pub speculative: bool,
    /// Multiplicative estimation bias applied to this copy's remaining-time estimates
    /// (drawn once at launch so estimates are consistent over the copy's lifetime).
    pub rem_bias: f64,
}

impl CopyRuntime {
    /// Ground-truth remaining runtime at `now`.
    pub fn true_remaining(&self, now: Time) -> Time {
        (self.start + self.duration - now).max(0.0)
    }

    /// Elapsed runtime at `now`.
    pub fn elapsed(&self, now: Time) -> Time {
        (now - self.start).max(0.0)
    }

    /// Progress fraction at `now`.
    pub fn progress(&self, now: Time) -> f64 {
        if self.duration <= 0.0 {
            return 1.0;
        }
        (self.elapsed(now) / self.duration).min(1.0)
    }
}

/// Runtime state of one task.
#[derive(Debug, Clone)]
pub struct TaskRuntime {
    /// The task's static description.
    pub spec: TaskSpec,
    /// Currently running copies.
    pub copies: Vec<CopyRuntime>,
    /// Whether the task has completed.
    pub finished: bool,
    /// Completion time, if finished.
    pub finish_time: Option<Time>,
    /// Multiplicative estimation bias applied to this task's `tnew` estimates.
    pub tnew_bias: f64,
    /// Total number of copies ever launched for this task.
    pub launched_copies: usize,
}

impl TaskRuntime {
    fn new(spec: TaskSpec, tnew_bias: f64) -> Self {
        TaskRuntime {
            spec,
            copies: Vec::new(),
            finished: false,
            finish_time: None,
            tnew_bias,
            launched_copies: 0,
        }
    }

    /// The running copy expected to finish first, by ground truth.
    pub fn best_copy(&self, now: Time) -> Option<&CopyRuntime> {
        self.copies
            .iter()
            .min_by(|a, b| a.true_remaining(now).total_cmp(&b.true_remaining(now)))
    }

    /// Estimated duration of a fresh copy: ground truth under an oracle
    /// estimator, otherwise work × observed duration per work × this task's bias.
    fn tnew(&self, oracle: bool, per_work: f64, cluster_mean_slowdown: f64) -> Time {
        if oracle {
            self.spec.work * cluster_mean_slowdown
        } else {
            (self.spec.work * per_work * self.tnew_bias).max(1e-6)
        }
    }

    /// Write the fields of `view` that depend on this task's running copies and on
    /// `now`: copy count, elapsed time, progress, progress rate, `trem` and the
    /// true remaining time. A task without copies gets the idle values.
    fn write_copy_fields(&self, view: &mut TaskView, now: Time, oracle: bool) {
        let (running, elapsed, progress, rate, trem, true_rem) = match self.best_copy(now) {
            Some(best) => {
                let oldest_start = self
                    .copies
                    .iter()
                    .map(|c| c.start)
                    .fold(f64::INFINITY, f64::min);
                let elapsed = (now - oldest_start).max(0.0);
                let true_rem = best.true_remaining(now);
                let trem = if oracle {
                    true_rem
                } else {
                    (true_rem * best.rem_bias).max(0.0)
                };
                let progress = best.progress(now);
                let rate = if elapsed > 0.0 {
                    progress / elapsed
                } else {
                    0.0
                };
                (
                    self.copies.len() as u32,
                    elapsed,
                    progress,
                    rate,
                    trem,
                    true_rem,
                )
            }
            None => (0, 0.0, 0.0, 0.0, f64::INFINITY, f64::INFINITY),
        };
        view.running_copies = running;
        view.elapsed = elapsed;
        view.progress = progress;
        view.progress_rate = rate;
        view.trem = trem;
        view.true_remaining = true_rem;
    }
}

/// What happened when a copy-finish event was applied to a job.
#[derive(Debug, Default)]
pub struct CompletionEffect {
    /// Slots freed (the finishing copy's slot plus every killed sibling's slot).
    pub freed_slots: Vec<SlotId>,
    /// Number of sibling copies killed.
    pub killed: usize,
    /// Identity (copy id, slot) of every killed sibling, for trace capture.
    pub killed_copies: Vec<(CopyId, SlotId)>,
    /// Whether the event referred to a copy that no longer exists (stale).
    pub stale: bool,
    /// Whether the task transitioned to finished by this event.
    pub task_completed: bool,
}

impl CompletionEffect {
    /// Clear all fields, keeping the vector capacities. The event core reuses
    /// one effect as a scratch buffer across all copy-finish events instead of
    /// allocating two `Vec`s per event (a measured slot-free-path hot spot).
    pub fn reset(&mut self) {
        self.freed_slots.clear();
        self.killed_copies.clear();
        self.killed = 0;
        self.stale = false;
        self.task_completed = false;
    }
}

/// Runtime state of one job.
pub struct JobRuntime {
    /// The job's static specification.
    pub spec: JobSpec,
    /// The per-job speculation policy instance.
    pub policy: BoxedPolicy,
    /// Per-task runtime state, indexed by [`TaskId`].
    pub tasks: Vec<TaskRuntime>,
    /// Completed-task counters per DAG stage.
    pub completed_per_stage: Vec<usize>,
    /// Slots currently allocated to (occupied by) this job.
    pub allocated_slots: usize,
    /// Speculative copies launched so far.
    pub speculative_copies: usize,
    /// Copies killed because a sibling finished first.
    pub killed_copies: usize,
    /// Slot-seconds consumed so far (all copies, including killed ones).
    pub slot_seconds: f64,
    /// Effective deadline for the input stage (deadline-bound jobs only), relative to
    /// arrival.
    pub input_deadline: Option<Time>,
    /// Sum of completed copy durations normalised by task work, in completion
    /// order; with `duration_per_work_count` it gives the `tnew` estimate in O(1).
    duration_per_work_sum: f64,
    /// Number of terms in `duration_per_work_sum`.
    duration_per_work_count: usize,
    /// Measured estimation accuracy.
    pub accuracy: AccuracyTracker,
    /// Time-weighted allocated-slot count.
    pub wave_width_stat: TimeWeighted,
    /// Time-weighted cluster utilisation observed by this job.
    pub util_stat: TimeWeighted,
    /// Time-weighted measured estimation accuracy.
    pub acc_stat: TimeWeighted,
    /// Whether the job has finished (deadline fired or error bound met).
    pub done: bool,
    /// Number of tasks not yet finished (kept in lockstep with
    /// `tasks[i].finished` so [`has_unfinished_work`](Self::has_unfinished_work)
    /// is O(1) instead of an O(tasks) scan).
    pub unfinished: usize,
    /// Event-core bookkeeping: index of the next global utilisation-timeline
    /// entry this job has not yet folded into its time-weighted statistics (see
    /// the simulator's lazy stats catch-up). Unused by the frozen reference
    /// engine.
    pub stats_cursor: usize,
    /// Estimator noise model and cluster mean slowdown the views are built with.
    estimator: EstimatorConfig,
    cluster_mean_slowdown: f64,
    /// The [`TaskView`] of every unfinished task, in task order, maintained as
    /// the job changes: a launch updates one entry, a completion removes one and
    /// refreshes `tnew` and `eligible`, and [`refresh_views`](Self::refresh_views)
    /// brings the running entries up to a new `now`. Equal to
    /// [`build_task_views`](Self::build_task_views) after every refresh.
    pub(crate) views: Vec<TaskView>,
    /// Positions in `views` of the entries with running copies, in no order.
    running_views: Vec<usize>,
    /// The `now` of the last refresh. Every running entry is current at it,
    /// except entries launched later, which the next refresh covers because
    /// time only moves forward.
    views_at: Time,
    /// The job's standing decline: the time and fair share of the last consult,
    /// if the policy declined it. Every other answer (each launch follows one),
    /// a copy finish and a kill clear it, because each changes the view the
    /// policy declined.
    pub(crate) declined: Option<(Time, usize)>,
}

impl JobRuntime {
    /// Create the runtime state for a job at its arrival. The task views are
    /// estimated with `estimator` on a cluster of mean slowdown
    /// `cluster_mean_slowdown`.
    pub fn new<R: Rng + ?Sized>(
        spec: JobSpec,
        policy: BoxedPolicy,
        estimator: &EstimatorConfig,
        cluster_mean_slowdown: f64,
        now: Time,
        rng: &mut R,
    ) -> Self {
        let tasks: Vec<TaskRuntime> = spec
            .tasks
            .iter()
            .map(|t| {
                let bias = if estimator.oracle {
                    1.0
                } else {
                    degrade_estimate(1.0, estimator.tnew_accuracy, rng)
                };
                TaskRuntime::new(*t, bias)
            })
            .collect();
        let stages = spec.stages.len();
        let prior_accuracy = estimator.nominal_accuracy();
        let unfinished = tasks.len();
        let mut job = JobRuntime {
            spec,
            policy,
            tasks,
            completed_per_stage: vec![0; stages],
            allocated_slots: 0,
            speculative_copies: 0,
            killed_copies: 0,
            slot_seconds: 0.0,
            input_deadline: None,
            duration_per_work_sum: 0.0,
            duration_per_work_count: 0,
            accuracy: AccuracyTracker::new(prior_accuracy),
            wave_width_stat: TimeWeighted::new(now, 0.0),
            util_stat: TimeWeighted::new(now, 0.0),
            acc_stat: TimeWeighted::new(now, prior_accuracy),
            done: false,
            unfinished,
            stats_cursor: 0,
            estimator: *estimator,
            cluster_mean_slowdown,
            views: Vec::new(),
            running_views: Vec::new(),
            views_at: now,
            declined: None,
        };
        let mut views = Vec::with_capacity(job.tasks.len());
        job.build_task_views_into(now, estimator, cluster_mean_slowdown, &mut views);
        job.views = views;
        job
    }

    /// Number of input-stage tasks required for this job's bound.
    fn stage_needed(&self, stage: usize) -> usize {
        // grass: allow(panicky-lib, "stage indices come from iterating this spec's own stages")
        let count = self.spec.stages[stage].task_count;
        if stage == 0 {
            match self.spec.bound {
                Bound::Deadline(_) => count,
                Bound::Error(e) => Bound::Error(e).tasks_needed(count),
            }
        } else {
            count
        }
    }

    /// Whether the tasks of `stage` may be scheduled. Stage 0 is always eligible;
    /// stage `s > 0` unlocks when stage `s − 1` has met its completion requirement.
    pub fn stage_eligible(&self, stage: usize) -> bool {
        if stage == 0 {
            return true;
        }
        // grass: allow(panicky-lib, "completed_per_stage is sized from spec.stages at construction")
        self.completed_per_stage[stage - 1] >= self.stage_needed(stage - 1)
    }

    /// Whether every stage has met its completion requirement (error-bound jobs
    /// finish when this becomes true).
    pub fn bound_satisfied(&self) -> bool {
        // grass: allow(panicky-lib, "completed_per_stage is sized from spec.stages at construction")
        (0..self.spec.stages.len()).all(|s| self.completed_per_stage[s] >= self.stage_needed(s))
    }

    /// Completed input-stage tasks.
    pub fn completed_input(&self) -> usize {
        self.completed_per_stage.first().copied().unwrap_or(0)
    }

    /// Completed tasks across all stages.
    pub fn completed_total(&self) -> usize {
        self.completed_per_stage.iter().sum()
    }

    /// Whether any unfinished task remains (used to decide whether the job still has
    /// demand for slots). O(1) via the `unfinished` counter.
    pub fn has_unfinished_work(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.tasks.iter().filter(|t| !t.finished).count()
        );
        self.unfinished > 0
    }

    /// Current estimate of a new copy's duration per unit work: the mean of completed
    /// copy durations normalised by work, falling back to the cluster's mean slowdown
    /// before any completions.
    pub fn duration_per_work_estimate(&self, cluster_mean_slowdown: f64) -> f64 {
        if self.duration_per_work_count == 0 {
            cluster_mean_slowdown
        } else {
            self.duration_per_work_sum / self.duration_per_work_count as f64
        }
    }

    /// Build the [`TaskView`]s for every unfinished task.
    pub fn build_task_views(
        &self,
        now: Time,
        estimator: &EstimatorConfig,
        cluster_mean_slowdown: f64,
    ) -> Vec<TaskView> {
        let mut views = Vec::with_capacity(self.tasks.len());
        self.build_task_views_into(now, estimator, cluster_mean_slowdown, &mut views);
        views
    }

    /// Build the [`TaskView`]s for every unfinished task into a caller-provided
    /// buffer, clearing it first. The frozen reference engine builds the views of
    /// every consult this way; the live engine reads the maintained views and
    /// uses a full build only as their debug-build oracle.
    pub fn build_task_views_into(
        &self,
        now: Time,
        estimator: &EstimatorConfig,
        cluster_mean_slowdown: f64,
        views: &mut Vec<TaskView>,
    ) {
        views.clear();
        let per_work = self.duration_per_work_estimate(cluster_mean_slowdown);
        for (idx, task) in self.tasks.iter().enumerate() {
            if task.finished {
                continue;
            }
            let mut view = TaskView {
                id: TaskId(idx as u32),
                stage: task.spec.stage,
                eligible: self.stage_eligible(task.spec.stage.value() as usize),
                running_copies: 0,
                elapsed: 0.0,
                progress: 0.0,
                progress_rate: 0.0,
                trem: f64::INFINITY,
                tnew: task.tnew(estimator.oracle, per_work, cluster_mean_slowdown),
                true_remaining: f64::INFINITY,
                true_new_hint: task.spec.work * cluster_mean_slowdown,
                work: task.spec.work,
            };
            task.write_copy_fields(&mut view, now, estimator.oracle);
            views.push(view);
        }
    }

    /// Bring the maintained views up to `now`: only the running entries have
    /// time-dependent fields, so this is O(running tasks), not O(tasks), and
    /// nothing when the views were already refreshed at `now`. Debug builds
    /// check the result against a full [`build_task_views`](Self::build_task_views).
    pub(crate) fn refresh_views(&mut self, now: Time) {
        if self.views_at != now {
            let oracle = self.estimator.oracle;
            for &pos in &self.running_views {
                let Some(view) = self.views.get_mut(pos) else {
                    continue;
                };
                if let Some(task) = self.tasks.get(view.id.index()) {
                    task.write_copy_fields(view, now, oracle);
                }
            }
            self.views_at = now;
        }
        debug_assert_eq!(
            self.views,
            self.build_task_views(now, &self.estimator, self.cluster_mean_slowdown),
            "maintained task views diverged from a full rebuild"
        );
    }

    /// Whether an offer at `now` with fair share `fair_share` can be answered
    /// from the standing decline: one is recorded at the same fair share, and
    /// the policy says it still holds. Nothing else in the job's view can have
    /// changed since, because every job-local change clears the decline.
    pub(crate) fn decline_stands(&self, now: Time, fair_share: usize) -> bool {
        self.declined
            .is_some_and(|(at, fair)| fair == fair_share && self.policy.decline_holds(at, now))
    }

    /// The [`JobView`] of this job at `now` over `views` (the maintained views,
    /// passed separately so the result borrows them and not the whole job,
    /// which leaves `policy` free to be called with it).
    pub(crate) fn job_view<'v>(
        &self,
        views: &'v [TaskView],
        now: Time,
        fair_share: usize,
        utilization: f64,
    ) -> JobView<'v> {
        JobView {
            job: self.spec.id,
            now,
            arrival: self.spec.arrival,
            bound: self.spec.bound,
            input_deadline: self.input_deadline,
            total_input_tasks: self.spec.input_tasks(),
            completed_input_tasks: self.completed_input(),
            total_tasks: self.spec.total_tasks(),
            completed_tasks: self.completed_total(),
            tasks: views,
            wave_width: self
                .allocated_slots
                .max(fair_share.min(self.spec.total_tasks())),
            cluster_utilization: utilization,
            estimation_accuracy: self.accuracy.accuracy(),
        }
    }

    /// Drop the maintained views once the job is finalised, so view memory
    /// tracks live jobs only.
    pub(crate) fn release_views(&mut self) {
        self.views = Vec::new();
        self.running_views = Vec::new();
    }

    /// Position of `task`'s entry in the maintained views, if it is unfinished.
    fn view_position(&self, task: TaskId) -> Option<usize> {
        self.views.binary_search_by_key(&task, |v| v.id).ok()
    }

    /// Record the launch of a copy of `task` on `slot`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_copy<R: Rng + ?Sized>(
        &mut self,
        task: TaskId,
        copy_id: CopyId,
        slot: SlotId,
        now: Time,
        duration: Time,
        estimator: &EstimatorConfig,
        rng: &mut R,
    ) {
        // grass: allow(panicky-lib, "TaskIds are minted by this runtime's constructor; index is always valid")
        let t = &mut self.tasks[task.index()];
        debug_assert!(!t.finished, "launched a copy of a finished task");
        let speculative = !t.copies.is_empty();
        let rem_bias = if estimator.oracle {
            1.0
        } else {
            degrade_estimate(1.0, estimator.trem_accuracy, rng)
        };
        t.copies.push(CopyRuntime {
            id: copy_id,
            slot,
            start: now,
            duration,
            speculative,
            rem_bias,
        });
        t.launched_copies += 1;
        if speculative {
            self.speculative_copies += 1;
        }
        self.allocated_slots += 1;
        if let Some(pos) = self.view_position(task) {
            if let (Some(view), Some(t)) = (self.views.get_mut(pos), self.tasks.get(task.index())) {
                if view.running_copies == 0 {
                    self.running_views.push(pos);
                }
                t.write_copy_fields(view, now, self.estimator.oracle);
            }
        }
    }

    /// Apply a copy-finish event. Marks the task finished, kills sibling copies, and
    /// reports which slots were freed.
    pub fn complete_copy(&mut self, task: TaskId, copy_id: CopyId, now: Time) -> CompletionEffect {
        let mut effect = CompletionEffect::default();
        self.complete_copy_into(task, copy_id, now, &mut effect);
        effect
    }

    /// [`complete_copy`](Self::complete_copy) into a caller-owned effect buffer,
    /// resetting it first. The event core threads one scratch effect through
    /// every copy-finish event, retiring the two per-event `Vec` allocations.
    pub fn complete_copy_into(
        &mut self,
        task: TaskId,
        copy_id: CopyId,
        now: Time,
        effect: &mut CompletionEffect,
    ) {
        effect.reset();
        // grass: allow(panicky-lib, "TaskIds are minted by this runtime's constructor; index is always valid")
        let t = &mut self.tasks[task.index()];
        let Some(pos) = t.copies.iter().position(|c| c.id == copy_id) else {
            effect.stale = true;
            return;
        };
        if t.finished {
            effect.stale = true;
            return;
        }
        let finishing = t.copies.swap_remove(pos);
        self.declined = None;
        self.slot_seconds += finishing.elapsed(now);
        effect.freed_slots.push(finishing.slot);
        // Kill every sibling copy: the race is over.
        for sibling in t.copies.drain(..) {
            self.slot_seconds += sibling.elapsed(now);
            effect.freed_slots.push(sibling.slot);
            effect.killed_copies.push((sibling.id, sibling.slot));
            effect.killed += 1;
        }
        self.killed_copies += effect.killed;
        self.allocated_slots = self
            .allocated_slots
            .saturating_sub(effect.freed_slots.len());
        t.finished = true;
        t.finish_time = Some(now);
        effect.task_completed = true;
        self.unfinished -= 1;

        let stage = t.spec.stage.value() as usize;
        let work = t.spec.work;
        let tnew_bias = t.tnew_bias;
        let rem_bias = finishing.rem_bias;
        let actual = finishing.duration;
        // grass: allow(panicky-lib, "stage comes from this task's spec; completed_per_stage is sized from spec.stages")
        self.completed_per_stage[stage] += 1;
        if work > 0.0 && actual > 0.0 {
            self.duration_per_work_sum += actual / work;
            self.duration_per_work_count += 1;
            // What the estimator believed versus what happened, folded into the
            // measured-accuracy signal GRASS consumes.
            self.accuracy.record(actual * rem_bias, actual);
            self.accuracy.record(work * tnew_bias, actual);
        }
        self.remove_view(task, stage);
    }

    /// Drop the finished `task`'s view (of DAG stage `stage`) and refresh what a
    /// completion changes in the others: `tnew` (one more observed duration) and
    /// `eligible` (the completion may unlock the next stage).
    fn remove_view(&mut self, task: TaskId, stage: usize) {
        if let Some(pos) = self.view_position(task) {
            self.views.remove(pos);
            self.running_views.retain(|&p| p != pos);
            for p in &mut self.running_views {
                if *p > pos {
                    *p -= 1;
                }
            }
        }
        // Stages unlock in order and never lock again, so only the stage after
        // the finished task's can change eligibility here.
        let next_stage = stage + 1;
        let unlocked = next_stage < self.spec.stages.len() && self.stage_eligible(next_stage);
        let oracle = self.estimator.oracle;
        let per_work = self.duration_per_work_estimate(self.cluster_mean_slowdown);
        for view in &mut self.views {
            if unlocked && view.stage.value() as usize == next_stage {
                view.eligible = true;
            }
            if let Some(t) = self.tasks.get(view.id.index()) {
                view.tnew = t.tnew(oracle, per_work, self.cluster_mean_slowdown);
            }
        }
    }

    /// Kill every running copy of every task (used when a job hits its deadline or is
    /// finalised early). Returns the identity of every killed copy
    /// (task, copy id, freed slot).
    pub fn kill_all_copies(&mut self, now: Time) -> Vec<(TaskId, CopyId, SlotId)> {
        let mut freed = Vec::new();
        self.declined = None;
        for (idx, t) in self.tasks.iter_mut().enumerate() {
            for c in t.copies.drain(..) {
                self.slot_seconds += c.elapsed(now);
                freed.push((TaskId(idx as u32), c.id, c.slot));
                self.killed_copies += 1;
            }
        }
        self.allocated_slots = self.allocated_slots.saturating_sub(freed.len());
        for pos in self.running_views.drain(..) {
            let Some(view) = self.views.get_mut(pos) else {
                continue;
            };
            if let Some(t) = self.tasks.get(view.id.index()) {
                t.write_copy_fields(view, now, self.estimator.oracle);
            }
        }
        freed
    }

    /// Update the job's time-weighted statistics at `now`.
    pub fn update_stats(&mut self, now: Time, cluster_utilization: f64) {
        self.wave_width_stat
            .update(now, self.allocated_slots as f64);
        self.util_stat.update(now, cluster_utilization);
        self.acc_stat.update(now, self.accuracy.accuracy());
    }

    /// Build the job's final outcome record at `finish`.
    pub fn outcome(&self, finish: Time) -> JobOutcome {
        JobOutcome {
            job: self.spec.id,
            policy: self.policy.name().to_string(),
            bound: self.spec.bound,
            input_tasks: self.spec.input_tasks(),
            total_tasks: self.spec.total_tasks(),
            dag_length: self.spec.dag_length(),
            arrival: self.spec.arrival,
            finish,
            completed_input_tasks: self.completed_input(),
            completed_tasks: self.completed_total(),
            speculative_copies: self.speculative_copies,
            killed_copies: self.killed_copies,
            slot_seconds: self.slot_seconds,
            avg_wave_width: self.wave_width_stat.average(finish),
            avg_cluster_utilization: self.util_stat.average(finish),
            avg_estimation_accuracy: self.acc_stat.average(finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_core::{Action, JobView, SpeculationPolicy, StageId};
    use proptest::prop_assert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Noop;
    impl SpeculationPolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn choose(&mut self, _view: &JobView) -> Option<Action> {
            None
        }
    }

    fn job_runtime(bound: Bound, work: Vec<f64>) -> JobRuntime {
        let spec = JobSpec::single_stage(1, 0.0, bound, work);
        let mut rng = StdRng::seed_from_u64(1);
        JobRuntime::new(
            spec,
            Box::new(Noop),
            &EstimatorConfig::oracle(),
            1.0,
            0.0,
            &mut rng,
        )
    }

    fn slot(n: usize) -> SlotId {
        SlotId {
            machine: 0,
            slot: n,
        }
    }

    #[test]
    fn launch_and_complete_single_copy() {
        let mut rt = job_runtime(Bound::EXACT, vec![2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        rt.launch_copy(
            TaskId(0),
            1,
            slot(0),
            0.0,
            2.0,
            &EstimatorConfig::oracle(),
            &mut rng,
        );
        assert_eq!(rt.allocated_slots, 1);
        assert_eq!(rt.speculative_copies, 0);
        let effect = rt.complete_copy(TaskId(0), 1, 2.0);
        assert!(effect.task_completed);
        assert!(!effect.stale);
        assert_eq!(effect.freed_slots, vec![slot(0)]);
        assert_eq!(effect.killed, 0);
        assert_eq!(rt.completed_input(), 1);
        assert_eq!(rt.allocated_slots, 0);
        assert!((rt.slot_seconds - 2.0).abs() < 1e-12);
        assert!(!rt.bound_satisfied());
    }

    #[test]
    fn speculative_copy_race_kills_loser() {
        let mut rt = job_runtime(Bound::EXACT, vec![5.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 10.0, &est, &mut rng);
        rt.launch_copy(TaskId(0), 2, slot(1), 2.0, 3.0, &est, &mut rng);
        assert_eq!(rt.speculative_copies, 1);
        assert_eq!(rt.allocated_slots, 2);
        // The speculative copy (id 2) finishes at t = 5.
        let effect = rt.complete_copy(TaskId(0), 2, 5.0);
        assert!(effect.task_completed);
        assert_eq!(effect.killed, 1);
        assert_eq!(effect.freed_slots.len(), 2);
        assert_eq!(rt.killed_copies, 1);
        assert_eq!(rt.allocated_slots, 0);
        // Slot-seconds: speculative ran 3s, original ran 5s before being killed.
        assert!((rt.slot_seconds - 8.0).abs() < 1e-12);
        // The original's finish event is now stale.
        let stale = rt.complete_copy(TaskId(0), 1, 10.0);
        assert!(stale.stale);
        assert!(rt.bound_satisfied());
    }

    #[test]
    fn task_views_report_estimates_and_truth() {
        let mut rt = job_runtime(Bound::Deadline(20.0), vec![2.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 4.0, &est, &mut rng);
        let views = rt.build_task_views(1.0, &est, 1.0);
        assert_eq!(views.len(), 2);
        let running = views.iter().find(|v| v.id == TaskId(0)).unwrap();
        assert_eq!(running.running_copies, 1);
        assert!((running.true_remaining - 3.0).abs() < 1e-12);
        assert!((running.trem - 3.0).abs() < 1e-12);
        assert!((running.elapsed - 1.0).abs() < 1e-12);
        assert!((running.progress - 0.25).abs() < 1e-12);
        let idle = views.iter().find(|v| v.id == TaskId(1)).unwrap();
        assert_eq!(idle.running_copies, 0);
        assert!(idle.trem.is_infinite());
        assert!((idle.tnew - 4.0).abs() < 1e-12);
    }

    #[test]
    fn completed_tasks_disappear_from_views_and_feed_tnew() {
        let mut rt = job_runtime(Bound::EXACT, vec![2.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 6.0, &est, &mut rng);
        rt.complete_copy(TaskId(0), 1, 6.0);
        let views = rt.build_task_views(6.0, &est, 1.0);
        assert_eq!(views.len(), 1);
        // Observed duration/work = 3.0, so the non-oracle tnew estimate for the other
        // task (work 2.0) would be ~6.0; the oracle hint stays work × slowdown.
        assert!((rt.duration_per_work_estimate(1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn error_bound_satisfaction_counts_needed_tasks() {
        let mut rt = job_runtime(Bound::Error(0.5), vec![1.0, 1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(6);
        let est = EstimatorConfig::oracle();
        for i in 0..2 {
            rt.launch_copy(
                TaskId(i),
                u64::from(i) + 1,
                slot(i as usize),
                0.0,
                1.0,
                &est,
                &mut rng,
            );
            rt.complete_copy(TaskId(i), u64::from(i) + 1, 1.0);
        }
        // ε = 0.5 of 4 tasks => 2 needed.
        assert!(rt.bound_satisfied());
        assert_eq!(rt.completed_input(), 2);
    }

    #[test]
    fn multi_stage_eligibility_unlocks_after_upstream_completion() {
        let spec = JobSpec::multi_stage(7, 0.0, Bound::Error(0.5), vec![vec![1.0, 1.0], vec![2.0]]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut rt = JobRuntime::new(
            spec,
            Box::new(Noop),
            &EstimatorConfig::oracle(),
            1.0,
            0.0,
            &mut rng,
        );
        assert!(rt.stage_eligible(0));
        assert!(!rt.stage_eligible(1));
        let est = EstimatorConfig::oracle();
        // ε = 0.5 of 2 input tasks => 1 needed; completing one unlocks stage 1.
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 1.0, &est, &mut rng);
        rt.complete_copy(TaskId(0), 1, 1.0);
        assert!(rt.stage_eligible(1));
        assert!(!rt.bound_satisfied());
        let views = rt.build_task_views(1.0, &est, 1.0);
        let downstream = views.iter().find(|v| v.stage == StageId(1)).unwrap();
        assert!(downstream.eligible);
    }

    #[test]
    fn kill_all_copies_frees_every_slot() {
        let mut rt = job_runtime(Bound::Deadline(10.0), vec![4.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(8);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 4.0, &est, &mut rng);
        rt.launch_copy(TaskId(1), 2, slot(1), 0.0, 4.0, &est, &mut rng);
        let freed = rt.kill_all_copies(2.0);
        assert_eq!(freed.len(), 2);
        assert_eq!(rt.allocated_slots, 0);
        assert_eq!(rt.killed_copies, 2);
        assert!((rt.slot_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_summarises_job_state() {
        let mut rt = job_runtime(Bound::Deadline(10.0), vec![2.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(9);
        let est = EstimatorConfig::oracle();
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 2.0, &est, &mut rng);
        rt.update_stats(0.0, 0.5);
        rt.complete_copy(TaskId(0), 1, 2.0);
        rt.update_stats(2.0, 0.5);
        let outcome = rt.outcome(10.0);
        assert_eq!(outcome.completed_input_tasks, 1);
        assert_eq!(outcome.input_tasks, 2);
        assert!((outcome.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(outcome.policy, "noop");
        assert!(outcome.avg_wave_width > 0.0);
    }

    #[test]
    fn noisy_estimates_deviate_from_truth_but_stay_positive() {
        let spec = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![5.0; 50]);
        let mut rng = StdRng::seed_from_u64(10);
        let est = EstimatorConfig::with_accuracy(0.6);
        let mut rt = JobRuntime::new(spec, Box::new(Noop), &est, 1.0, 0.0, &mut rng);
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 5.0, &est, &mut rng);
        let views = rt.build_task_views(1.0, &est, 1.0);
        let mut any_differs = false;
        for v in &views {
            assert!(v.tnew > 0.0);
            if v.is_running() {
                assert!(v.trem >= 0.0);
                if (v.trem - v.true_remaining).abs() > 1e-9 {
                    any_differs = true;
                }
            }
            if (v.tnew - v.true_new_hint).abs() > 1e-9 {
                any_differs = true;
            }
        }
        assert!(any_differs, "noisy estimator produced only exact estimates");
    }

    /// Refresh the maintained views at `now` and require them to equal a full
    /// rebuild.
    fn assert_views_match(rt: &mut JobRuntime, now: Time, est: &EstimatorConfig, slowdown: f64) {
        rt.refresh_views(now);
        assert_eq!(
            rt.views,
            rt.build_task_views(now, est, slowdown),
            "at t = {now}"
        );
    }

    #[test]
    fn best_copy_ties_match_a_full_rebuild() {
        // Two copies that end at the same time tie on remaining time, and the
        // view reports the first one: progress 2/4, not the second copy's 1/3.
        let est = EstimatorConfig::with_accuracy(0.6);
        let spec = JobSpec::single_stage(1, 0.0, Bound::EXACT, vec![2.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut rt = JobRuntime::new(spec, Box::new(Noop), &est, 1.5, 0.0, &mut rng);
        rt.launch_copy(TaskId(0), 1, slot(0), 0.0, 4.0, &est, &mut rng);
        assert_views_match(&mut rt, 1.0, &est, 1.5);
        rt.launch_copy(TaskId(0), 2, slot(1), 1.0, 3.0, &est, &mut rng);
        assert_views_match(&mut rt, 1.0, &est, 1.5);
        assert_views_match(&mut rt, 2.0, &est, 1.5);
        assert_eq!(rt.views[0].progress, 0.5);
        assert_eq!(rt.views[0].running_copies, 2);
        // t = 4: both copies end exactly now, so remaining time clamps to zero.
        assert_views_match(&mut rt, 4.0, &est, 1.5);
        assert_eq!(rt.views[0].true_remaining, 0.0);
        assert_eq!(rt.views[0].trem, 0.0);
    }

    /// Random job for the view-maintenance property: deadline or error bound,
    /// one stage or a three-stage DAG.
    fn random_job(rng: &mut StdRng, deadline: bool, dag: bool) -> JobSpec {
        let bound = if deadline {
            Bound::Deadline(rng.gen_range(5.0..50.0))
        } else {
            Bound::Error(rng.gen_range(0.0..0.6))
        };
        let stages = if dag { 3 } else { 1 };
        let work = (0..stages)
            .map(|_| {
                let n = rng.gen_range(1..12);
                (0..n).map(|_| rng.gen_range(0.2..4.0)).collect()
            })
            .collect();
        JobSpec::multi_stage(1, 0.0, bound, work)
    }

    /// Every running copy of the job as `(task, copy id, end time)`.
    fn running_copies(rt: &JobRuntime) -> Vec<(TaskId, CopyId, Time)> {
        rt.tasks
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.copies
                    .iter()
                    .map(move |c| (TaskId(i as u32), c.id, c.start + c.duration))
            })
            .collect()
    }

    /// The policies whose declines hold until the job changes, however far the
    /// clock moves.
    fn policies_holding_until_the_job_changes() -> Vec<BoxedPolicy> {
        use grass_core::{GsPolicy, RasPolicy};
        use grass_policies::{LjfPolicy, NoSpecPolicy, OraclePolicy, SjfPolicy};
        vec![
            Box::new(GsPolicy),
            Box::new(RasPolicy),
            Box::new(OraclePolicy::default()),
            Box::new(NoSpecPolicy),
            Box::new(SjfPolicy),
            Box::new(LjfPolicy),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 96,
            ..proptest::ProptestConfig::default()
        })]

        /// A decline by GS, RAS, the oracle, NoSpec, SJF or LJF at `t` still
        /// holds at every later `t'` up to the job's next launch, finish or
        /// kill, and each of them says so through `decline_holds`. This is what
        /// lets the simulator answer repeat offers without `choose()`; it fails
        /// if `trem` can rise while a job is unchanged.
        #[test]
        fn declines_hold_until_the_job_changes(
            seed in proptest::any::<u64>(),
            deadline in proptest::any::<bool>(),
            dag in proptest::any::<bool>(),
            oracle in proptest::any::<bool>(),
            steps in 1usize..150,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let est = if oracle {
                EstimatorConfig::oracle()
            } else {
                EstimatorConfig::with_accuracy(rng.gen_range(0.3..0.95))
            };
            let slowdown = rng.gen_range(0.5..3.0);
            let fair_share = rng.gen_range(1..8);
            let spec = random_job(&mut rng, deadline, dag);
            let mut rt = JobRuntime::new(spec, Box::new(Noop), &est, slowdown, 0.0, &mut rng);
            let mut policies = policies_holding_until_the_job_changes();
            let mut declined: Vec<Option<Time>> = vec![None; policies.len()];
            let mut now = 0.0;
            let mut next_copy = 0;
            for _ in 0..steps {
                if rt.views.is_empty() {
                    break;
                }
                rt.refresh_views(now);
                let view = rt.job_view(&rt.views, now, fair_share, rng.gen_range(0.0..1.0));
                for (policy, declined_at) in policies.iter_mut().zip(&mut declined) {
                    let choice = policy.choose(&view);
                    if let Some(at) = *declined_at {
                        prop_assert!(
                            policy.decline_holds(at, now),
                            "{} gave up its decline from t = {at} at t = {now}",
                            policy.name()
                        );
                        prop_assert!(
                            choice.is_none(),
                            "{} declined at t = {at} but chose {choice:?} at t = {now}",
                            policy.name()
                        );
                    } else if choice.is_none() {
                        *declined_at = Some(now);
                    }
                }
                let running = running_copies(&rt);
                let earliest_end = running
                    .iter()
                    .map(|&(_, _, end)| end)
                    .fold(f64::INFINITY, f64::min);
                let changed = match rng.gen_range(0..10) {
                    // Launch a first copy of a random task, or a speculative one.
                    0 | 1 => {
                        let open: Vec<TaskId> = rt
                            .tasks
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| {
                                !t.finished
                                    && t.copies.len() < 3
                                    && rt.stage_eligible(t.spec.stage.value() as usize)
                            })
                            .map(|(i, _)| TaskId(i as u32))
                            .collect();
                        if open.is_empty() {
                            false
                        } else {
                            let task = open[rng.gen_range(0..open.len())];
                            let duration = rng.gen_range(0.5..8.0);
                            next_copy += 1;
                            rt.launch_copy(task, next_copy, slot(0), now, duration, &est, &mut rng);
                            true
                        }
                    }
                    // Finish the earliest-ending copy at its end time.
                    2 => match running.iter().min_by(|a, b| a.2.total_cmp(&b.2)) {
                        Some(&(task, copy, end)) => {
                            now = f64::max(now, end);
                            rt.complete_copy(task, copy, now);
                            true
                        }
                        None => false,
                    },
                    3 => {
                        if rng.gen_bool(0.1) {
                            rt.kill_all_copies(now);
                            true
                        } else {
                            false
                        }
                    }
                    // Step the clock to the next copy's end, where its
                    // remaining time reaches zero, but not past it: its finish
                    // is the next event.
                    4 => {
                        if earliest_end.is_finite() {
                            now = f64::max(now, earliest_end);
                        }
                        false
                    }
                    _ => {
                        now = f64::min(now + rng.gen_range(0.0..3.0), f64::max(now, earliest_end));
                        false
                    }
                };
                if changed {
                    declined.iter_mut().for_each(|d| *d = None);
                }
            }
        }

        /// The maintained views equal a full rebuild after every launch,
        /// speculative launch, copy finish (with sibling kills and stage
        /// unlocks), stale finish, `kill_all_copies` and clock step.
        #[test]
        fn maintained_views_match_a_full_rebuild(
            seed in proptest::any::<u64>(),
            deadline in proptest::any::<bool>(),
            dag in proptest::any::<bool>(),
            oracle in proptest::any::<bool>(),
            steps in 1usize..150,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let est = if oracle {
                EstimatorConfig::oracle()
            } else {
                EstimatorConfig::with_accuracy(rng.gen_range(0.3..0.95))
            };
            let slowdown = rng.gen_range(0.5..3.0);
            let spec = random_job(&mut rng, deadline, dag);
            let mut rt = JobRuntime::new(spec, Box::new(Noop), &est, slowdown, 0.0, &mut rng);
            let mut now = 0.0;
            let mut next_copy = 0;
            assert_views_match(&mut rt, now, &est, slowdown);
            for _ in 0..steps {
                let running = running_copies(&rt);
                match rng.gen_range(0..10) {
                    // Launch a first copy of an idle, eligible task.
                    0..=2 => {
                        let idle: Vec<TaskId> = rt
                            .tasks
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| {
                                !t.finished
                                    && t.copies.is_empty()
                                    && rt.stage_eligible(t.spec.stage.value() as usize)
                            })
                            .map(|(i, _)| TaskId(i as u32))
                            .collect();
                        if !idle.is_empty() {
                            let task = idle[rng.gen_range(0..idle.len())];
                            let duration = rng.gen_range(0.5..8.0);
                            next_copy += 1;
                            rt.launch_copy(task, next_copy, slot(0), now, duration, &est, &mut rng);
                        }
                    }
                    // Speculate on a running task.
                    3 => {
                        if !running.is_empty() {
                            let (task, _, end) = running[rng.gen_range(0..running.len())];
                            // Half the time the new copy ends exactly when an
                            // existing one does.
                            let duration = if rng.gen_bool(0.5) && end > now {
                                end - now
                            } else {
                                rng.gen_range(0.5..8.0)
                            };
                            next_copy += 1;
                            rt.launch_copy(task, next_copy, slot(1), now, duration, &est, &mut rng);
                        }
                    }
                    // Finish the earliest-ending copy at its end time (killing
                    // its siblings; the completion may unlock the next stage).
                    4 | 5 => {
                        if let Some(&(task, copy, end)) =
                            running.iter().min_by(|a, b| a.2.total_cmp(&b.2))
                        {
                            now = f64::max(now, end);
                            rt.complete_copy(task, copy, now);
                        }
                    }
                    // A stale finish: no copy has this id.
                    6 => {
                        let task = TaskId(rng.gen_range(0..rt.tasks.len()) as u32);
                        let effect = rt.complete_copy(task, next_copy + 1, now);
                        prop_assert!(effect.stale);
                    }
                    // Step the clock to a copy's end time: a tie where that
                    // copy's remaining time clamps to zero.
                    7 => {
                        if !running.is_empty() {
                            now = f64::max(now, running[rng.gen_range(0..running.len())].2);
                        }
                    }
                    8 => now += rng.gen_range(0.0..2.0),
                    _ => {
                        if rng.gen_bool(0.2) {
                            rt.kill_all_copies(now);
                        }
                    }
                }
                assert_views_match(&mut rt, now, &est, slowdown);
            }
        }
    }
}
