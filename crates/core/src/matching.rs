//! Sort-once greedy maximum-score matching over the MapScore table.
//!
//! The job assignment & dispatch engine (Figure 4) repeatedly dispatches
//! the best remaining (ready task, idle accelerator) pair. A naive
//! implementation rescans the whole table per pick — O(k·T·A) for k
//! dispatches. Sorting the candidate list once and walking it with
//! occupancy flags yields the *identical* pick sequence in
//! O(T·A·log(T·A)): at each step, the first unused candidate in sorted
//! order is exactly the maximum over unused pairs the rescan would find.
//!
//! # Tie-breaking
//!
//! Equal MapScores resolve deterministically by **lowest (task index,
//! accelerator index)** — the same pair a row-major rescan keeping the
//! first strict maximum would select. This ordering is part of the
//! scheduler's contract (determinism tests fingerprint every run) and is
//! regression-tested with exact float ties.

use std::cmp::Ordering;

/// One (task, accelerator) candidate pair in the MapScore table.
///
/// Indices are rows/columns of the per-decision table: `task` indexes the
/// decision's ready-task list, `acc` its idle-accelerator list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The pair's MapScore value. Must not be NaN (unit scores are finite
    /// by construction; urgency is slack-floored).
    pub score: f64,
    /// Row: index into the decision's ready-task list.
    pub task: u32,
    /// Column: index into the decision's idle-accelerator list.
    pub acc: u32,
}

/// Sorts `candidates` into dispatch order (descending score, ties by
/// ascending (task, acc)) and emits the greedy matching: each candidate
/// whose task **and** accelerator are still unused claims both.
///
/// `used_tasks` / `used_accs` must be at least as long as the largest
/// index used and all-false on entry; they come back marked with the
/// matched rows/columns, so callers holding reusable scratch can clear
/// them afterwards.
pub fn greedy_assign(
    candidates: &mut [Candidate],
    used_tasks: &mut [bool],
    used_accs: &mut [bool],
    mut emit: impl FnMut(u32, u32),
) {
    debug_assert!(
        candidates.iter().all(|c| !c.score.is_nan()),
        "MapScore values must be non-NaN for a total dispatch order"
    );
    candidates.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.task.cmp(&b.task))
            .then_with(|| a.acc.cmp(&b.acc))
    });
    for c in candidates.iter() {
        if used_tasks[c.task as usize] || used_accs[c.acc as usize] {
            continue;
        }
        used_tasks[c.task as usize] = true;
        used_accs[c.acc as usize] = true;
        emit(c.task, c.acc);
    }
}

/// One step of the greedy matching of a table with one row or one
/// column: `best` keeps the first strict maximum of the cells offered in
/// row-major order. That is the pair [`greedy_assign`] emits first, and
/// a one-row or one-column table has no second: descending score, ties
/// to the lowest (task, acc), and `-0.0` ties `+0.0` as `partial_cmp`
/// has it. The caller offers each cell as it scores it, so the match
/// needs no candidate vector, sort or occupancy flags.
#[inline]
pub fn keep_best(best: &mut Option<Candidate>, cell: Candidate) {
    debug_assert!(
        !cell.score.is_nan(),
        "MapScore values must be non-NaN for a total dispatch order"
    );
    if best.is_none_or(|b| cell.score > b.score) {
        *best = Some(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run(mut cands: Vec<Candidate>, n_tasks: usize, n_accs: usize) -> Vec<(u32, u32)> {
        let mut used_t = vec![false; n_tasks];
        let mut used_a = vec![false; n_accs];
        let mut out = Vec::new();
        greedy_assign(&mut cands, &mut used_t, &mut used_a, |t, a| {
            out.push((t, a));
        });
        out
    }

    fn table(scores: &[&[f64]]) -> Vec<Candidate> {
        let mut v = Vec::new();
        for (ti, row) in scores.iter().enumerate() {
            for (ai, &score) in row.iter().enumerate() {
                v.push(Candidate {
                    score,
                    task: ti as u32,
                    acc: ai as u32,
                });
            }
        }
        v
    }

    /// Reference implementation: the original repeated-rescan greedy
    /// (first strict maximum in row-major order wins).
    fn rescan(scores: &[&[f64]]) -> Vec<(u32, u32)> {
        let mut used_t = vec![false; scores.len()];
        let mut used_a = vec![false; scores.first().map_or(0, |r| r.len())];
        let mut out = Vec::new();
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for (ti, row) in scores.iter().enumerate() {
                if used_t[ti] {
                    continue;
                }
                for (ai, &s) in row.iter().enumerate() {
                    if used_a[ai] {
                        continue;
                    }
                    if best.map(|(_, _, b)| s > b).unwrap_or(true) {
                        best = Some((ti, ai, s));
                    }
                }
            }
            let Some((ti, ai, _)) = best else { break };
            used_t[ti] = true;
            used_a[ai] = true;
            out.push((ti as u32, ai as u32));
        }
        out
    }

    #[test]
    fn picks_global_maximum_first() {
        let scores: &[&[f64]] = &[&[1.0, 5.0], &[3.0, 2.0]];
        assert_eq!(run(table(scores), 2, 2), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn exact_float_ties_resolve_by_task_then_acc_index() {
        // Every cell the exact same bit pattern: the matching must walk
        // the diagonal (0,0), (1,1), … — lowest task index first, then
        // lowest accelerator index among its columns.
        let t = 0.1 + 0.2; // a value with a non-trivial representation
        let scores: &[&[f64]] = &[&[t, t, t], &[t, t, t], &[t, t, t]];
        assert_eq!(run(table(scores), 3, 3), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn partial_tie_prefers_lower_acc_within_a_task() {
        // Task 1's two cells tie for the global maximum: task 1 must take
        // acc 0 (lower index), leaving acc 1 to task 0.
        let scores: &[&[f64]] = &[&[1.0, 1.0], &[7.0, 7.0]];
        assert_eq!(run(table(scores), 2, 2), vec![(1, 0), (0, 1)]);
    }

    #[test]
    fn matches_repeated_rescan_reference_on_mixed_tables() {
        let tables: &[&[&[f64]]] = &[
            &[&[1.0, 5.0, 2.0], &[3.0, 2.0, 9.0]],
            &[&[4.0], &[4.0], &[4.0]],
            &[&[2.0, 2.0], &[2.0, 2.0], &[1.0, 3.0]],
            &[&[-1.0, -2.0], &[-3.0, -1.0]],
            &[&[0.0, -0.0], &[-0.0, 0.0]],
        ];
        for scores in tables {
            let n_accs = scores[0].len();
            assert_eq!(
                run(table(scores), scores.len(), n_accs),
                rescan(scores),
                "{scores:?}"
            );
        }
    }

    #[test]
    fn more_tasks_than_accelerators_saturates_accelerators() {
        let scores: &[&[f64]] = &[&[1.0], &[2.0], &[3.0]];
        assert_eq!(run(table(scores), 3, 1), vec![(2, 0)]);
    }

    /// `keep_best` over a one-row or one-column table against
    /// `greedy_assign` on the same cells.
    fn assert_line_matches(scores: &[&[f64]]) {
        let n_accs = scores[0].len();
        let mut best = None;
        for cell in table(scores) {
            keep_best(&mut best, cell);
        }
        let best = best.map(|c| (c.task, c.acc));
        let greedy = run(table(scores), scores.len(), n_accs);
        assert_eq!(best.into_iter().collect::<Vec<_>>(), greedy, "{scores:?}");
    }

    #[test]
    fn one_line_ties_and_signed_zeros_match_the_greedy_matching() {
        let t = 0.1 + 0.2;
        let rows: &[&[f64]] = &[
            &[t, t, t],
            &[-0.0, 0.0],
            &[0.0, -0.0],
            &[-1.0, -0.0, 0.0, -0.0],
            &[1.0, 3.0, 3.0, 2.0],
            &[f64::NEG_INFINITY, f64::MIN],
            &[5.0],
        ];
        for row in rows {
            assert_line_matches(&[row]);
            let column: Vec<[f64; 1]> = row.iter().map(|&x| [x]).collect();
            let column: Vec<&[f64]> = column.iter().map(|r| &r[..]).collect();
            assert_line_matches(&column);
        }
    }

    /// A 1×1 table's one cell is the match whatever it scores: the
    /// premise of the scheduler's forced pair, which skips the score.
    #[test]
    fn one_line_one_by_one_yields_its_cell_for_any_score() {
        let scores = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.0,
            -1.0,
        ];
        for score in scores {
            let mut best = None;
            keep_best(
                &mut best,
                Candidate {
                    score,
                    task: 0,
                    acc: 0,
                },
            );
            assert_eq!(best.map(|c| (c.task, c.acc)), Some((0, 0)), "{score}");
            assert_line_matches(&[&[score]]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random one-row and one-column tables over a few values, so
        /// exact ties and both signed zeros come up often.
        #[test]
        fn one_line_tables_match_the_greedy_matching(
            picks in proptest::collection::vec(0usize..7, 1..9),
            column in any::<bool>(),
        ) {
            const VALUES: [f64; 7] = [-0.0, 0.0, 1.5, -2.25, 1.5e-300, 7.0, -0.0];
            let line: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
            if column {
                let rows: Vec<[f64; 1]> = line.iter().map(|&x| [x]).collect();
                let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
                assert_line_matches(&rows);
            } else {
                assert_line_matches(&[&line]);
            }
        }
    }
}
