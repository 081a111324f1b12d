//! GS (Greedy Speculative) and RAS (Resource Aware Speculative) scheduling,
//! implemented after Pseudocode 1 (deadline-bound jobs) and Pseudocode 2 (error-bound
//! jobs) of the paper.
//!
//! Both algorithms run in two stages:
//!
//! 1. **Pruning** — drop tasks that cannot help: tasks whose fresh copy would miss the
//!    deadline (deadline-bound), tasks outside the earliest `(1 − ε)` set (error-bound),
//!    running tasks whose speculative copy would not beat the running copy (GS) or
//!    would not save resources (RAS).
//! 2. **Selection** — GS picks the candidate that improves the approximation goal
//!    soonest (lowest `tnew` for deadlines — SJF; largest remaining work for error
//!    bounds — LJF). RAS picks the speculation with the largest resource saving
//!    `c·trem − (c+1)·tnew`, and otherwise falls back to the same default ordering of
//!    unscheduled tasks ("at default, both algorithms schedule the task with the
//!    lowest `tnew` / highest `trem`").

use std::cell::Cell;
use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::job::{Bound, JobSpec, JobView};
use crate::policy::{Action, BoxedPolicy, PolicyFactory, SpeculationPolicy};
use crate::task::{TaskId, TaskView, Time};

/// Which of the two building-block algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpeculationMode {
    /// Greedy Speculative scheduling (`OC = 0` in the pseudocode).
    Gs,
    /// Resource Aware Speculative scheduling (`OC = 1`).
    Ras,
}

impl SpeculationMode {
    /// Policy name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SpeculationMode::Gs => "GS",
            SpeculationMode::Ras => "RAS",
        }
    }
}

/// Upper limit on concurrently running copies of a single task. Guideline 1 of the
/// paper shows ≤ 2 copies is optimal during early waves; we allow one more in the
/// final wave where aggressive speculation is called for, and cap there to avoid
/// pathological duplication when estimates are badly wrong.
pub const MAX_COPIES_PER_TASK: u32 = 3;

/// Choose the next action for a job under GS or RAS. Shared by the plain [`GsPolicy`]
/// / [`RasPolicy`] wrappers, by GRASS (which alternates between the two modes), and by
/// the oracle baseline (which feeds ground-truth estimates through the same logic).
///
/// Runs in time linear in the number of tasks and, once a thread has seen its largest
/// job, without heap allocation: both pseudocodes are evaluated in one pass over the
/// view, and the error-bound `(1 − ε)` cut is an order-statistic selection, not a sort.
///
/// # A decline holds until the job changes
///
/// If `choose` returns `None` at time `t`, it returns `None` at every later `t'` on
/// the same job in the same mode, as long as only the time-driven fields move (the
/// [`SpeculationPolicy`] standing-decline contract). As time advances, `tnew`,
/// eligibility, copy counts and `wave_width` stay fixed, and `trem` of a running task
/// can only fall: the best copy keeps its bias and its remaining time shrinks. (The
/// one exception is a rounding tie: two copies whose end times differ by a few ulps
/// can round to the same remaining time, and the tie may hand "best" to a copy with
/// a larger bias. A run in which such a tie turned a decline into an accept would
/// fail the simulator's debug check, which re-consults every reused decline, and
/// differ from the reference engine, which consults every offer.) So:
///
/// * Deadline pruning (`tnew > remaining`) only drops more tasks, because the time
///   left to the deadline shrinks.
/// * An admissible copy needs `tnew < trem` (GS) or `c·trem > (c+1)·tnew` (RAS).
///   Either test can only turn from true to false as `trem` falls.
/// * The error-bound needed set holds the `still_needed` smallest effective
///   durations `min(trem, tnew)`, and `still_needed` is fixed. Only running tasks'
///   keys move, and they only fall, so no idle task can enter the set. A running
///   task that enters it and admits a copy at `t'` has `trem(t') > tnew`, so its key
///   was `tnew` at `t` as well. It was outside the set then, and the keys ahead of
///   it have not grown, so it is still outside.
///
/// Nothing that was pruned or inadmissible at `t` becomes a candidate at `t'`, and
/// the selection stage returns `None` exactly when there is no candidate.
pub fn choose(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    match view.bound {
        Bound::Deadline(_) => choose_deadline(view, mode),
        Bound::Error(_) => choose_error(view, mode),
    }
}

/// A task's place in the candidate sequence the pseudocodes walk. Pseudocode 2 walks
/// the eligible input tasks by effective duration (ties by view position), then the
/// eligible non-input tasks in view order; Pseudocode 1 walks the view in order.
/// Ordering candidates by `(value, key)` reproduces `Iterator::min_by` (first minimum
/// in sequence) and `Iterator::max_by` (last maximum) without materialising the
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SeqKey {
    /// 0 for ranked input tasks, 1 for tasks taken in view order after them.
    class: u8,
    /// Effective duration in [`total_order_bits`] form; 0 outside class 0.
    eff: u64,
    /// Index into `JobView::tasks`.
    pos: usize,
}

impl SeqKey {
    fn ranked_input(eff: f64, pos: usize) -> Self {
        SeqKey {
            class: 0,
            eff: total_order_bits(eff),
            pos,
        }
    }

    fn in_view_order(pos: usize) -> Self {
        SeqKey {
            class: 1,
            eff: 0,
            pos,
        }
    }
}

/// Map `x` to an integer whose unsigned order is `f64::total_cmp`'s order.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The best candidate seen so far under one selection rule.
#[derive(Debug, Clone, Copy)]
struct Pick {
    value: f64,
    key: SeqKey,
    id: TaskId,
}

impl Pick {
    fn of(t: &TaskView, value: f64, key: SeqKey) -> Self {
        Pick {
            value,
            key,
            id: t.id,
        }
    }

    /// Ordering by value under `total_cmp`, then by sequence position.
    fn cmp(&self, other: &Pick) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then(self.key.cmp(&other.key))
    }
}

/// `Iterator::max_by` over the candidate sequence: the last maximum wins.
fn keep_max(best: &mut Option<Pick>, cand: Pick) {
    if best.is_none_or(|b| cand.cmp(&b) == Ordering::Greater) {
        *best = Some(cand);
    }
}

/// `Iterator::min_by` over the candidate sequence: the first minimum wins.
fn keep_min(best: &mut Option<Pick>, cand: Pick) {
    if best.is_none_or(|b| cand.cmp(&b) == Ordering::Less) {
        *best = Some(cand);
    }
}

/// Pruning of a running task: whether one more copy is admissible under `mode` —
/// below the copy cap, and beating the running copy (GS) or saving resources (RAS).
fn admits_copy(t: &TaskView, mode: SpeculationMode) -> bool {
    t.running_copies < MAX_COPIES_PER_TASK
        && match mode {
            SpeculationMode::Gs => t.new_copy_beats_running(),
            SpeculationMode::Ras => t.speculation_saving().is_some_and(|s| s > 0.0),
        }
}

/// RAS's selection value. Candidates passed [`admits_copy`], so the saving exists;
/// NEG_INFINITY keeps the order total if that ever changes.
fn saving(t: &TaskView) -> f64 {
    t.speculation_saving().unwrap_or(f64::NEG_INFINITY)
}

/// The surviving fresh launch and speculative copy of the selection stage.
#[derive(Debug, Default)]
struct Picks {
    fresh: Option<Pick>,
    spec: Option<Pick>,
}

impl Picks {
    /// GS takes the speculative copy iff `spec_first(spec value, fresh value)`; RAS
    /// takes any speculation that frees resources (it is a strict win, Figure 1
    /// right) and otherwise launches the default fresh task.
    fn into_action(
        self,
        mode: SpeculationMode,
        spec_first: fn(f64, f64) -> bool,
    ) -> Option<Action> {
        match (self.fresh, self.spec) {
            (Some(f), Some(s)) if mode == SpeculationMode::Gs && !spec_first(s.value, f.value) => {
                Some(Action::launch(f.id))
            }
            (_, Some(s)) => Some(Action::speculate(s.id)),
            (fresh, None) => fresh.map(|f| Action::launch(f.id)),
        }
    }
}

/// Pseudocode 1: deadline-bound jobs.
fn choose_deadline(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
    if remaining <= 0.0 {
        return None;
    }
    let mut picks = Picks::default();
    for (pos, t) in view.tasks.iter().enumerate() {
        // Pruning: a copy launched now must be expected to finish before the deadline.
        if !t.eligible || t.tnew > remaining {
            continue;
        }
        let key = SeqKey::in_view_order(pos);
        if !t.is_running() {
            keep_min(&mut picks.fresh, Pick::of(t, t.tnew, key));
        } else if admits_copy(t, mode) {
            // GS: SJF over fresh tasks and admissible copies alike — schedule
            // whatever finishes soonest. RAS: the largest resource saving.
            match mode {
                SpeculationMode::Gs => keep_min(&mut picks.spec, Pick::of(t, t.tnew, key)),
                SpeculationMode::Ras => keep_max(&mut picks.spec, Pick::of(t, saving(t), key)),
            }
        }
    }
    picks.into_action(mode, |spec_tnew, fresh_tnew| spec_tnew < fresh_tnew)
}

thread_local! {
    /// Sequence keys of the eligible input tasks, reused across [`choose_error`]
    /// calls on this thread so the hot path stops allocating once the buffer has
    /// grown to the largest job the thread schedules.
    static INPUT_KEYS: Cell<Vec<SeqKey>> = const { Cell::new(Vec::new()) };
}

/// Pseudocode 2: error-bound jobs.
fn choose_error(view: &JobView, mode: SpeculationMode) -> Option<Action> {
    // Only the earliest unfinished *input* tasks — by effective duration — that will
    // make up the (1 − ε) result are candidates, plus every eligible non-input task
    // (intermediate stages must run in full for the completed fraction). The default
    // ordering is LJF, longest work first, to minimise the needed tasks' makespan: GS
    // picks the candidate with the largest remaining time, the task that most
    // threatens the makespan, whether by launching it (fresh) or by racing a copy
    // against its straggling original.
    let mut picks = Picks::default();
    let mut offer = |t: &TaskView, key: SeqKey| {
        if !t.is_running() {
            keep_max(&mut picks.fresh, Pick::of(t, t.tnew, key));
        } else if admits_copy(t, mode) {
            let value = match mode {
                SpeculationMode::Gs => t.trem,
                SpeculationMode::Ras => saving(t),
            };
            keep_max(&mut picks.spec, Pick::of(t, value, key));
        }
    };

    let mut inputs = INPUT_KEYS.take();
    inputs.clear();
    for (pos, t) in view.tasks.iter().enumerate() {
        if !t.eligible {
            continue;
        }
        if t.stage.is_input() {
            inputs.push(SeqKey::ranked_input(t.effective_duration(), pos));
        } else {
            offer(t, SeqKey::in_view_order(pos));
        }
    }
    // The needed set is the `still_needed` smallest keys. Keys are distinct (they
    // carry the position), so after selecting the (still_needed − 1)-th the prefix
    // holds exactly that set.
    let still_needed = view
        .input_tasks_still_needed()
        .unwrap_or(inputs.len())
        .min(inputs.len());
    if still_needed > 0 && still_needed < inputs.len() {
        inputs.select_nth_unstable(still_needed - 1);
    }
    inputs.truncate(still_needed);
    for key in &inputs {
        if let Some(t) = view.tasks.get(key.pos) {
            offer(t, *key);
        }
    }
    INPUT_KEYS.set(inputs);

    picks.into_action(mode, |spec_trem, fresh_tnew| spec_trem > fresh_tnew)
}

/// Greedy Speculative scheduling as a standalone per-job policy ("GS-only" in §6.3.1).
#[derive(Debug, Default, Clone)]
pub struct GsPolicy;

impl SpeculationPolicy for GsPolicy {
    fn name(&self) -> &str {
        "GS"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        choose(view, SpeculationMode::Gs)
    }

    /// A decline holds until the job changes (see [`choose`]).
    fn decline_holds(&self, _declined_at: Time, _now: Time) -> bool {
        true
    }
}

/// Resource Aware Speculative scheduling as a standalone per-job policy ("RAS-only").
#[derive(Debug, Default, Clone)]
pub struct RasPolicy;

impl SpeculationPolicy for RasPolicy {
    fn name(&self) -> &str {
        "RAS"
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        choose(view, SpeculationMode::Ras)
    }

    /// A decline holds until the job changes (see [`choose`]).
    fn decline_holds(&self, _declined_at: Time, _now: Time) -> bool {
        true
    }
}

/// Factory producing [`GsPolicy`] instances.
#[derive(Debug, Default, Clone)]
pub struct GsFactory;

impl PolicyFactory for GsFactory {
    fn name(&self) -> &str {
        "GS"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(GsPolicy)
    }
}

/// Factory producing [`RasPolicy`] instances.
#[derive(Debug, Default, Clone)]
pub struct RasFactory;

impl PolicyFactory for RasFactory {
    fn name(&self) -> &str {
        "RAS"
    }

    fn create(&self, _job: &JobSpec) -> BoxedPolicy {
        Box::new(RasPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ActionKind;
    use crate::task::{JobId, StageId, TaskId};

    fn task(id: u32, running: bool, trem: f64, tnew: f64, copies: u32) -> TaskView {
        TaskView {
            id: TaskId(id),
            stage: StageId::INPUT,
            eligible: true,
            running_copies: if running { copies } else { 0 },
            elapsed: if running { 1.0 } else { 0.0 },
            progress: if running { 0.5 } else { 0.0 },
            progress_rate: 0.1,
            trem: if running { trem } else { f64::INFINITY },
            tnew,
            true_remaining: trem,
            true_new_hint: tnew,
            work: tnew,
        }
    }

    fn deadline_view<'a>(tasks: &'a [TaskView], now: f64, deadline: f64) -> JobView<'a> {
        JobView {
            job: JobId(1),
            now,
            arrival: 0.0,
            bound: Bound::Deadline(deadline),
            input_deadline: None,
            total_input_tasks: tasks.len() + 2,
            completed_input_tasks: 2,
            total_tasks: tasks.len() + 2,
            completed_tasks: 2,
            tasks,
            wave_width: 2,
            cluster_utilization: 0.8,
            estimation_accuracy: 0.75,
        }
    }

    fn error_view<'a>(
        tasks: &'a [TaskView],
        epsilon: f64,
        total: usize,
        done: usize,
    ) -> JobView<'a> {
        JobView {
            job: JobId(1),
            now: 5.0,
            arrival: 0.0,
            bound: Bound::Error(epsilon),
            input_deadline: None,
            total_input_tasks: total,
            completed_input_tasks: done,
            total_tasks: total,
            completed_tasks: done,
            tasks,
            wave_width: 3,
            cluster_utilization: 0.8,
            estimation_accuracy: 0.75,
        }
    }

    /// Figure 1 of the paper: nine tasks, two slots, T2 just finished at t = 2.
    /// T1 is running with trem = 5, tnew = 2; T3..T9 are unscheduled with
    /// tnew = 2, 3, 3, 4, 4, 5, 5.
    fn figure1_tasks() -> Vec<TaskView> {
        let mut tasks = vec![task(1, true, 5.0, 2.0, 1)];
        for (i, &w) in [2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0].iter().enumerate() {
            tasks.push(task(3 + i as u32, false, 0.0, w, 0));
        }
        tasks
    }

    #[test]
    fn figure1_gs_launches_shortest_fresh_task() {
        let tasks = figure1_tasks();
        let view = deadline_view(&tasks, 2.0, 6.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // GS schedules T3 (lowest tnew among all candidates; ties broken by order).
        assert_eq!(a.task, TaskId(3));
        assert_eq!(a.kind, ActionKind::Launch);
    }

    #[test]
    fn figure1_ras_speculates_t1() {
        let tasks = figure1_tasks();
        let view = deadline_view(&tasks, 2.0, 6.0);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        // RAS speculates T1: saving = 1*5 − 2*2 = 1 > 0.
        assert_eq!(a.task, TaskId(1));
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn deadline_pruning_drops_tasks_that_cannot_finish() {
        // Remaining deadline of 1s: only a task with tnew <= 1 survives.
        let tasks = vec![task(1, false, 0.0, 3.0, 0), task(2, false, 0.0, 0.8, 0)];
        let view = deadline_view(&tasks, 5.0, 6.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.task, TaskId(2));
        // With nothing fitting, no action at all.
        let tasks = vec![task(1, false, 0.0, 3.0, 0)];
        let view = deadline_view(&tasks, 5.0, 6.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        assert!(choose(&view, SpeculationMode::Ras).is_none());
    }

    #[test]
    fn past_deadline_yields_no_action() {
        let tasks = vec![task(1, false, 0.0, 0.5, 0)];
        let view = deadline_view(&tasks, 10.0, 6.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
    }

    #[test]
    fn gs_requires_new_copy_to_beat_running_copy() {
        // Running task with trem = 2, tnew = 3: a new copy is slower, GS must not copy.
        let tasks = vec![task(1, true, 2.0, 3.0, 1)];
        let view = deadline_view(&tasks, 0.0, 10.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        // trem = 4, tnew = 3: now GS speculates.
        let tasks = vec![task(1, true, 4.0, 3.0, 1)];
        let view = deadline_view(&tasks, 0.0, 10.0);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn ras_requires_positive_resource_saving() {
        // trem = 4, tnew = 3: GS would speculate but saving = 4 − 6 = −2 < 0.
        let tasks = vec![task(1, true, 4.0, 3.0, 1)];
        let view = deadline_view(&tasks, 0.0, 10.0);
        assert!(choose(&view, SpeculationMode::Ras).is_none());
        // trem = 7, tnew = 3: saving = 1 > 0.
        let tasks = vec![task(1, true, 7.0, 3.0, 1)];
        let view = deadline_view(&tasks, 0.0, 10.0);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        assert_eq!(a.kind, ActionKind::Speculate);
    }

    #[test]
    fn copy_cap_is_enforced() {
        let tasks = vec![task(1, true, 100.0, 1.0, MAX_COPIES_PER_TASK)];
        let view = deadline_view(&tasks, 0.0, 1000.0);
        assert!(choose(&view, SpeculationMode::Gs).is_none());
        assert!(choose(&view, SpeculationMode::Ras).is_none());
    }

    /// Figure 2 of the paper: six tasks, three slots, at t = 5 T1/T2/T4 are done,
    /// T3 is running with trem = 6, tnew = 3; T5, T6 are unscheduled with tnew 2 and 3.
    fn figure2_tasks() -> Vec<TaskView> {
        vec![
            task(3, true, 6.0, 3.0, 1),
            task(5, false, 0.0, 2.0, 0),
            task(6, false, 0.0, 3.0, 0),
        ]
    }

    #[test]
    fn figure2_gs_speculates_longest_straggler() {
        let tasks = figure2_tasks();
        // Error limit 20% of 6 tasks => 5 tasks needed, 3 done => 2 more needed.
        let view = error_view(&tasks, 0.2, 6, 3);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // T3 has the highest trem among the earliest-needed tasks.
        // needed = 2, earliest by effective duration: T5 (2), T6 (3) — wait, T3's
        // effective duration is min(6, 3) = 3, tie with T6; the two earliest are
        // T5 and either T3/T6. GS picks the largest remaining among candidates.
        assert!(a.task == TaskId(3) || a.task == TaskId(6));
    }

    #[test]
    fn figure2_ras_declines_speculation() {
        let tasks = figure2_tasks();
        let view = error_view(&tasks, 0.2, 6, 3);
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        // saving for T3 = 6 − 2*3 = 0, not > 0, so RAS launches a fresh task from the
        // needed set instead of duplicating T3.
        assert_eq!(a.kind, ActionKind::Launch);
        assert_eq!(a.task, TaskId(5));
    }

    #[test]
    fn error_bound_ignores_tasks_beyond_needed_set() {
        // 10 input tasks, ε = 0.5 => 5 needed, 4 done => only the single earliest
        // unfinished task is a candidate.
        let tasks = vec![
            task(1, false, 0.0, 9.0, 0),
            task(2, false, 0.0, 1.0, 0),
            task(3, false, 0.0, 5.0, 0),
        ];
        let view = error_view(&tasks, 0.5, 10, 4);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        // Only the earliest (T2, effective duration 1.0) is in the needed set, so it
        // is scheduled even though LJF would otherwise prefer T1.
        assert_eq!(a.task, TaskId(2));
    }

    #[test]
    fn exact_jobs_schedule_longest_first() {
        let tasks = vec![
            task(1, false, 0.0, 2.0, 0),
            task(2, false, 0.0, 8.0, 0),
            task(3, false, 0.0, 5.0, 0),
        ];
        let view = error_view(&tasks, 0.0, 10, 7);
        let a = choose(&view, SpeculationMode::Gs).unwrap();
        assert_eq!(a.task, TaskId(2));
        let a = choose(&view, SpeculationMode::Ras).unwrap();
        assert_eq!(a.task, TaskId(2));
    }

    #[test]
    fn total_order_bits_orders_like_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -2.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn policies_expose_names() {
        assert_eq!(GsPolicy.name(), "GS");
        assert_eq!(RasPolicy.name(), "RAS");
        assert_eq!(GsFactory.name(), "GS");
        assert_eq!(RasFactory.name(), "RAS");
        assert_eq!(SpeculationMode::Gs.name(), "GS");
        assert_eq!(SpeculationMode::Ras.name(), "RAS");
    }

    #[test]
    fn factories_create_working_policies() {
        let job = JobSpec::single_stage(1, 0.0, Bound::Deadline(10.0), vec![1.0, 2.0]);
        let tasks = vec![task(0, false, 0.0, 1.0, 0), task(1, false, 0.0, 2.0, 0)];
        let view = deadline_view(&tasks, 0.0, 10.0);
        let mut gs = GsFactory.create(&job);
        assert_eq!(gs.choose(&view).unwrap().task, TaskId(0));
        let mut ras = RasFactory.create(&job);
        assert_eq!(ras.choose(&view).unwrap().task, TaskId(0));
    }
}
