//! Differential tests of GS/RAS `choose()`.
//!
//! `grass_core::speculation::choose` evaluates both pseudocodes in one pass and
//! finds the error-bound `(1 − ε)` cut by order-statistic selection. The frozen
//! sort-based implementation below is the specification it must match
//! **decision for decision**: the eligible input tasks stably sorted by effective
//! duration and cut to the still-needed count, then the eligible non-input tasks in
//! view order, with `Iterator::max_by` (last maximum) and `Iterator::min_by` (first
//! minimum) breaking ties. The generated views draw every float from a small pool
//! so that ties in `tnew`, `trem`, effective duration and resource saving —
//! including `+0.0` against `-0.0` and infinite `trem` — are the common case.

use grass::prelude::*;
use grass_core::speculation::{choose, MAX_COPIES_PER_TASK};
use proptest::prelude::*;

/// The sort-based `choose()` the linear one replaced, kept verbatim as the oracle.
mod frozen {
    use super::*;

    pub fn choose(view: &JobView, mode: SpeculationMode) -> Option<Action> {
        match view.bound {
            Bound::Deadline(_) => choose_deadline(view, mode),
            Bound::Error(_) => choose_error(view, mode),
        }
    }

    fn choose_deadline(view: &JobView, mode: SpeculationMode) -> Option<Action> {
        let remaining = view.remaining_deadline().unwrap_or(f64::INFINITY);
        if remaining <= 0.0 {
            return None;
        }

        let mut fresh: Vec<&TaskView> = Vec::new();
        let mut speculative: Vec<&TaskView> = Vec::new();
        for t in view.eligible_tasks() {
            if t.tnew > remaining {
                continue;
            }
            if t.is_running() {
                if t.running_copies >= MAX_COPIES_PER_TASK {
                    continue;
                }
                match mode {
                    SpeculationMode::Gs => {
                        if t.new_copy_beats_running() {
                            speculative.push(t);
                        }
                    }
                    SpeculationMode::Ras => {
                        if t.speculation_saving().is_some_and(|s| s > 0.0) {
                            speculative.push(t);
                        }
                    }
                }
            } else {
                fresh.push(t);
            }
        }

        match mode {
            SpeculationMode::Gs => {
                let best_fresh = fresh.into_iter().min_by(|a, b| a.tnew.total_cmp(&b.tnew));
                let best_spec = speculative
                    .into_iter()
                    .min_by(|a, b| a.tnew.total_cmp(&b.tnew));
                match (best_fresh, best_spec) {
                    (Some(f), Some(s)) => {
                        if s.tnew < f.tnew {
                            Some(Action::speculate(s.id))
                        } else {
                            Some(Action::launch(f.id))
                        }
                    }
                    (Some(f), None) => Some(Action::launch(f.id)),
                    (None, Some(s)) => Some(Action::speculate(s.id)),
                    (None, None) => None,
                }
            }
            SpeculationMode::Ras => {
                if let Some(s) = speculative.into_iter().max_by(|a, b| {
                    a.speculation_saving()
                        .unwrap_or(f64::NEG_INFINITY)
                        .total_cmp(&b.speculation_saving().unwrap_or(f64::NEG_INFINITY))
                }) {
                    return Some(Action::speculate(s.id));
                }
                fresh
                    .into_iter()
                    .min_by(|a, b| a.tnew.total_cmp(&b.tnew))
                    .map(|f| Action::launch(f.id))
            }
        }
    }

    fn choose_error(view: &JobView, mode: SpeculationMode) -> Option<Action> {
        let mut input_tasks: Vec<&TaskView> = view
            .eligible_tasks()
            .filter(|t| t.stage.is_input())
            .collect();
        input_tasks.sort_by(|a, b| a.effective_duration().total_cmp(&b.effective_duration()));
        let still_needed = view
            .input_tasks_still_needed()
            .unwrap_or(input_tasks.len())
            .min(input_tasks.len());
        let candidates = input_tasks
            .into_iter()
            .take(still_needed)
            .chain(view.eligible_tasks().filter(|t| !t.stage.is_input()));

        let mut fresh: Vec<&TaskView> = Vec::new();
        let mut speculative: Vec<&TaskView> = Vec::new();
        for t in candidates {
            if t.is_running() {
                if t.running_copies >= MAX_COPIES_PER_TASK {
                    continue;
                }
                match mode {
                    SpeculationMode::Gs => {
                        if t.new_copy_beats_running() {
                            speculative.push(t);
                        }
                    }
                    SpeculationMode::Ras => {
                        if t.speculation_saving().is_some_and(|s| s > 0.0) {
                            speculative.push(t);
                        }
                    }
                }
            } else {
                fresh.push(t);
            }
        }

        match mode {
            SpeculationMode::Gs => {
                let best_fresh = fresh.into_iter().max_by(|a, b| a.tnew.total_cmp(&b.tnew));
                let best_spec = speculative
                    .into_iter()
                    .max_by(|a, b| a.trem.total_cmp(&b.trem));
                match (best_fresh, best_spec) {
                    (Some(f), Some(s)) => {
                        if s.trem > f.tnew {
                            Some(Action::speculate(s.id))
                        } else {
                            Some(Action::launch(f.id))
                        }
                    }
                    (Some(f), None) => Some(Action::launch(f.id)),
                    (None, Some(s)) => Some(Action::speculate(s.id)),
                    (None, None) => None,
                }
            }
            SpeculationMode::Ras => {
                if let Some(s) = speculative.into_iter().max_by(|a, b| {
                    a.speculation_saving()
                        .unwrap_or(f64::NEG_INFINITY)
                        .total_cmp(&b.speculation_saving().unwrap_or(f64::NEG_INFINITY))
                }) {
                    return Some(Action::speculate(s.id));
                }
                fresh
                    .into_iter()
                    .max_by(|a, b| a.tnew.total_cmp(&b.tnew))
                    .map(|f| Action::launch(f.id))
            }
        }
    }
}

/// Case count, overridable via `PROPTEST_CASES` (see `tests/properties.rs`).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

/// Every float a generated task carries. Few distinct values force ties; the signed
/// zeros differ under `total_cmp` but not under `<`.
const POOL: [f64; 8] = [-0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0, f64::INFINITY];

fn pooled(i: u8) -> f64 {
    POOL[usize::from(i) % POOL.len()]
}

fn task(
    id: usize,
    running_copies: u32,
    input: bool,
    eligible: bool,
    trem: f64,
    tnew: f64,
) -> TaskView {
    let running = running_copies > 0;
    TaskView {
        id: TaskId(id as u32),
        stage: if input { StageId::INPUT } else { StageId(1) },
        eligible,
        running_copies,
        elapsed: if running { 1.0 } else { 0.0 },
        progress: if running { 0.5 } else { 0.0 },
        progress_rate: 0.1,
        trem,
        tnew,
        true_remaining: trem,
        true_new_hint: tnew,
        work: tnew,
    }
}

/// One generated task: `(running copies 0..=MAX, flags, trem index, tnew index)`.
/// Flags: low two bits zero make the task ineligible; high bits zero make it a
/// non-input (intermediate-stage) task.
fn decode_tasks(raw: &[(u32, u8, u8, u8)]) -> Vec<TaskView> {
    raw.iter()
        .enumerate()
        .map(|(id, &(copies, flags, trem, tnew))| {
            task(
                id,
                copies,
                flags >= 4,
                flags % 4 != 0,
                pooled(trem),
                pooled(tnew),
            )
        })
        .collect()
}

fn view<'a>(tasks: &'a [TaskView], bound: Bound, total_input: usize, done: usize) -> JobView<'a> {
    JobView {
        job: JobId(7),
        now: 1.0,
        arrival: 0.0,
        bound,
        input_deadline: None,
        total_input_tasks: total_input,
        completed_input_tasks: done,
        total_tasks: total_input + 4,
        completed_tasks: done,
        tasks,
        wave_width: 3,
        cluster_utilization: 0.5,
        estimation_accuracy: 0.8,
    }
}

/// An error-bound view whose `input_tasks_still_needed()` is `still_needed`: with
/// 1000 input tasks at ε ≤ 0.5 at least 500 are needed, so the completed count can
/// always be set to leave exactly `still_needed`.
fn error_view(tasks: &[TaskView], epsilon: f64, still_needed: usize) -> JobView<'_> {
    let total = 1000;
    let needed = Bound::Error(epsilon).tasks_needed(total);
    let v = view(tasks, Bound::Error(epsilon), total, needed - still_needed);
    assert_eq!(v.input_tasks_still_needed(), Some(still_needed));
    v
}

/// `still_needed` against the view's `n` eligible input tasks: 0, 1, n − 1, n, more
/// than n, or anything in between.
fn still_needed_for(selector: u8, n: usize, any: u8) -> usize {
    match selector {
        0 => 0,
        1 => 1,
        2 => n.saturating_sub(1),
        3 => n,
        4 => n + 1 + usize::from(any % 5),
        _ => usize::from(any) % (n + 1),
    }
}

fn assert_same(v: &JobView, what: &str) {
    for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
        assert_eq!(
            choose(v, mode),
            frozen::choose(v, mode),
            "{what}, {} mode, tasks {:?}",
            mode.name(),
            v.tasks
                .iter()
                .map(|t| (
                    t.id.0,
                    t.running_copies,
                    t.stage.0,
                    t.eligible,
                    t.trem,
                    t.tnew
                ))
                .collect::<Vec<_>>()
        );
    }
}

fn task_strategy() -> impl Strategy<Value = (u32, u8, u8, u8)> {
    (0..=MAX_COPIES_PER_TASK, 0u8..12, 0u8..8, 0u8..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    #[test]
    fn error_bound_choice_matches_the_sorting_oracle(
        raw in prop::collection::vec(task_strategy(), 0..40),
        (selector, any, eps) in (0u8..6, any::<u8>(), 0u8..3),
    ) {
        let tasks = decode_tasks(&raw);
        let n = tasks.iter().filter(|t| t.eligible && t.stage.is_input()).count();
        let still_needed = still_needed_for(selector, n, any);
        let epsilon = [0.0, 0.1, 0.5][usize::from(eps)];
        assert_same(
            &error_view(&tasks, epsilon, still_needed),
            &format!("ε = {epsilon}, still needed {still_needed} of {n}"),
        );
    }

    #[test]
    fn deadline_choice_matches_the_sorting_oracle(
        raw in prop::collection::vec(task_strategy(), 0..40),
        remaining in 0u8..8,
    ) {
        let tasks = decode_tasks(&raw);
        // now = 1, so the remaining deadline is the pooled value (clamped at 0).
        let remaining = pooled(remaining);
        let v = view(&tasks, Bound::Deadline(1.0 + remaining), tasks.len(), 0);
        assert_same(&v, &format!("remaining deadline {remaining}"));
    }
}

#[test]
fn error_bound_last_maximum_in_candidate_order_wins() {
    // Equal trem = 5 on two admissible copies; the candidate order is by effective
    // duration, so T1 (eff 1) comes before T0 (eff 2) and T0 is the last maximum —
    // not T1, the later one in view order.
    let tasks = vec![
        task(0, 1, true, true, 5.0, 2.0),
        task(1, 1, true, true, 5.0, 1.0),
    ];
    let v = error_view(&tasks, 0.1, 2);
    assert_eq!(
        choose(&v, SpeculationMode::Gs),
        Some(Action::speculate(TaskId(0)))
    );
    assert_same(&v, "running tie");

    // Equal tnew = 3 on fresh tasks; non-input tasks follow every input task, so the
    // non-input T0 is the last maximum although it comes first in the view.
    let tasks = vec![
        task(0, 0, false, true, f64::INFINITY, 3.0),
        task(1, 0, true, true, f64::INFINITY, 3.0),
    ];
    let v = error_view(&tasks, 0.1, 1);
    for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
        assert_eq!(choose(&v, mode), Some(Action::launch(TaskId(0))));
    }
    assert_same(&v, "fresh tie across stages");

    // Equal saving 1·7 − 2·3 = 1 on two copies with equal effective duration: the
    // position breaks the tie, and the later one wins.
    let tasks = vec![
        task(0, 1, true, true, 7.0, 3.0),
        task(1, 1, true, true, 7.0, 3.0),
    ];
    let v = error_view(&tasks, 0.1, 2);
    assert_eq!(
        choose(&v, SpeculationMode::Ras),
        Some(Action::speculate(TaskId(1)))
    );
    assert_same(&v, "saving tie");
}

#[test]
fn deadline_first_minimum_in_view_order_wins() {
    // Equal tnew = 2 on fresh tasks: GS and RAS both launch the first one.
    let tasks = vec![
        task(0, 0, true, true, f64::INFINITY, 3.0),
        task(1, 0, true, true, f64::INFINITY, 2.0),
        task(2, 0, true, true, f64::INFINITY, 2.0),
    ];
    let v = view(&tasks, Bound::Deadline(10.0), 3, 0);
    for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
        assert_eq!(choose(&v, mode), Some(Action::launch(TaskId(1))));
    }
    assert_same(&v, "fresh tie");

    // GS: a copy must be strictly sooner than the best fresh task; at equal tnew
    // the fresh launch wins.
    let tasks = vec![
        task(0, 0, true, true, f64::INFINITY, 2.0),
        task(1, 1, true, true, 5.0, 2.0),
    ];
    let v = view(&tasks, Bound::Deadline(10.0), 2, 0);
    assert_eq!(
        choose(&v, SpeculationMode::Gs),
        Some(Action::launch(TaskId(0)))
    );
    assert_same(&v, "copy against fresh tie");

    // -0.0 sorts below +0.0 under total_cmp, so it is the minimum even though it
    // comes second.
    let tasks = vec![
        task(0, 0, true, true, f64::INFINITY, 0.0),
        task(1, 0, true, true, f64::INFINITY, -0.0),
    ];
    let v = view(&tasks, Bound::Deadline(10.0), 2, 0);
    assert_eq!(
        choose(&v, SpeculationMode::Gs),
        Some(Action::launch(TaskId(1)))
    );
    assert_same(&v, "signed zeros");
}

#[test]
fn choices_hold_at_the_copy_cap_and_infinite_trem() {
    // A task at the copy cap is never copied; an infinite trem is a valid straggler
    // for GS but gives RAS an infinite saving.
    let tasks = vec![
        task(0, MAX_COPIES_PER_TASK, true, true, 100.0, 1.0),
        task(1, 1, true, true, f64::INFINITY, 4.0),
    ];
    let v = error_view(&tasks, 0.0, 2);
    assert_eq!(
        choose(&v, SpeculationMode::Gs),
        Some(Action::speculate(TaskId(1)))
    );
    assert_eq!(
        choose(&v, SpeculationMode::Ras),
        Some(Action::speculate(TaskId(1)))
    );
    assert_same(&v, "cap and infinite trem");
}
