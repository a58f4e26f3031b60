//! Task-list construction and the paper's reordering policies (§3.1).
//!
//! A task multiplies one k-segment: `C_ij += op(A)_i[k0..k1] ·
//! op(B)[k0..k1]_j`. Segments come from merging A's k-panels (`q` of
//! them) with B's (`p`): in the square-grid case they coincide and
//! there are exactly `q` tasks per rank, matching the paper's
//! `C_ij = Σ_l A_il B_lj`.
//!
//! The order the tasks run in is SRUMMA's core scheduling idea:
//!
//! 1. **diagonal shift** — rotate the cyclic k-order so processes that
//!    share an SMP node start their sweeps at different k-panels,
//!    spreading their first fetches over different source nodes
//!    (Figure 4 — reduces NIC contention);
//! 2. **SMP-first** — move tasks whose blocks are all reachable through
//!    shared memory to the front, so computation starts immediately
//!    while the nonblocking gets for remote tasks fill the pipeline.

#[cfg(test)]
use srumma_comm::dist::chunk_len;
use srumma_comm::dist::chunk_start;

/// One k-segment task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Global k range start.
    pub k0: usize,
    /// Global k range end (exclusive).
    pub k1: usize,
    /// A k-panel index containing the range.
    pub la: usize,
    /// B k-panel index containing the range.
    pub lb: usize,
    /// Range start relative to the A panel's k origin.
    pub k0_rel_a: usize,
    /// Range start relative to the B panel's k origin.
    pub k0_rel_b: usize,
}

impl Task {
    /// Segment width.
    pub fn klen(&self) -> usize {
        self.k1 - self.k0
    }

    /// Range start relative to the A panel.
    pub(crate) fn rel_a(&self) -> usize {
        self.k0_rel_a
    }

    /// Range start relative to the B panel.
    pub(crate) fn rel_b(&self) -> usize {
        self.k0_rel_b
    }
}

/// Merge A's and B's k-partitions into segment tasks in k order.
///
/// Invariants (property-tested): segments tile `0..k` exactly; each
/// segment lies inside exactly one A panel and one B panel.
pub fn build_tasks(k: usize, aparts: usize, bparts: usize) -> Vec<Task> {
    let mut tasks = Vec::new();
    build_tasks_into(&mut tasks, k, aparts, bparts);
    tasks
}

/// [`build_tasks`] into a caller-owned vector (cleared first), so the
/// batched driver can run a stream of multiplies without reallocating
/// the task list per entry.
pub fn build_tasks_into(tasks: &mut Vec<Task>, k: usize, aparts: usize, bparts: usize) {
    assert!(aparts > 0 && bparts > 0);
    tasks.clear();
    if k == 0 {
        // Empty inner dimension: the product contributes nothing, so
        // there is no work — `C ← β·C` is handled by the caller's beta
        // pre-pass.
        return;
    }
    let ntasks = task_count(k, aparts, bparts);
    tasks.reserve_exact(ntasks);
    // Merge the two partitions' boundaries in one pass: `la`/`lb` are
    // the panels holding `k0`, and the task ends at the nearer of their
    // ends. Panel lengths differ by at most one, so an empty panel only
    // ever starts at `k`: one step past a panel that ended is enough.
    let (mut la, mut lb, mut k0) = (0, 0, 0);
    while k0 < k {
        if chunk_start(k, aparts, la + 1) == k0 {
            la += 1;
        }
        if chunk_start(k, bparts, lb + 1) == k0 {
            lb += 1;
        }
        let k1 = chunk_start(k, aparts, la + 1).min(chunk_start(k, bparts, lb + 1));
        tasks.push(Task {
            k0,
            k1,
            la,
            lb,
            k0_rel_a: k0 - chunk_start(k, aparts, la),
            k0_rel_b: k0 - chunk_start(k, bparts, lb),
        });
        k0 = k1;
    }
    debug_assert_eq!(tasks.len(), ntasks);
}

/// How many tasks [`build_tasks_into`] makes for `k > 0`: one per
/// distinct panel start below `k` in either partition — A's nonempty
/// panels, plus B's, less the starts they share.
fn task_count(k: usize, aparts: usize, bparts: usize) -> usize {
    // Inverts `chunk_start(k, bparts, j)`: `k % bparts` panels of
    // `base + 1`, then panels of `base`.
    let (base, rem) = (k / bparts, k % bparts);
    let wide = rem * (base + 1);
    let starts_b = |v: usize| match v < wide {
        true => v.is_multiple_of(base + 1),
        false => (v - wide).is_multiple_of(base),
    };
    let (a, b) = (aparts.min(k), bparts.min(k));
    let shared = (0..a)
        .filter(|&i| starts_b(chunk_start(k, aparts, i)))
        .count();
    a + b - shared
}

/// Produce the execution order (a permutation of task indices) under
/// the paper's policies.
///
/// * `shift` — diagonal-shift origin: the sweep starts at the first
///   task whose A panel is `shift % aparts` (0 disables nothing; pass
///   the caller's grid-dependent stagger).
/// * `smp_first` — stable-partition tasks whose operands are all
///   local/in-domain (as reported by `is_local`) to the front.
pub fn order_tasks(
    ntasks: usize,
    tasks: &[Task],
    aparts: usize,
    shift: usize,
    smp_first: bool,
    is_local: impl FnMut(&Task) -> bool,
) -> Vec<usize> {
    let mut order = Vec::new();
    order_tasks_into(
        &mut order, ntasks, tasks, aparts, shift, smp_first, is_local,
    );
    order
}

/// [`order_tasks`] into a caller-owned vector (cleared first) — the
/// allocation-free path for the batched driver.
#[allow(clippy::too_many_arguments)]
pub(crate) fn order_tasks_into(
    order: &mut Vec<usize>,
    ntasks: usize,
    tasks: &[Task],
    aparts: usize,
    shift: usize,
    smp_first: bool,
    mut is_local: impl FnMut(&Task) -> bool,
) {
    assert_eq!(ntasks, tasks.len());
    order.clear();
    order.reserve_exact(ntasks);
    if !smp_first {
        // Pure cyclic rotation: start the sweep at the shift panel.
        let start = tasks
            .iter()
            .position(|t| t.la == shift % aparts)
            .unwrap_or(0);
        order.extend((0..ntasks).map(|i| (start + i) % ntasks));
        return;
    }
    // Partition FIRST (in k order), then rotate only the remote
    // sublist. Rotating before extraction would frequently land the
    // rotation origin on a local task that is then pulled to the
    // front, collapsing different ranks' shift origins onto identical
    // remote sweeps — recreating exactly the contention the shift is
    // meant to remove.
    // One locality test per task: local tasks fill the front in k
    // order, remote ones the back in reverse k order, turned round below.
    order.resize(ntasks, 0);
    let (mut split, mut back) = (0, ntasks);
    for (idx, task) in tasks.iter().enumerate() {
        if is_local(task) {
            order[split] = idx;
            split += 1;
        } else {
            back -= 1;
            order[back] = idx;
        }
    }
    let remote = &mut order[split..];
    remote.reverse();
    if !remote.is_empty() {
        let rot = shift % remote.len();
        remote.rotate_left(rot);
    }
}

/// Drop every task the block-sparsity predicate rejects (its A or B
/// block is masked out, so the k-segment contributes nothing to
/// `C_ij`). Returns `(pruned_tasks, skipped_k)` — the number of tasks
/// removed and the total k-width they covered, from which the caller
/// computes skipped flops (`2 · c_rows · c_cols · skipped_k`).
///
/// Surviving tasks keep their k order, so the scheduling policies
/// ([`order_tasks_into`]) apply to the pruned list unchanged; an
/// all-pruned list is fine — ordering and the rank state machines
/// tolerate empty task lists (the rank still runs its β pre-pass and
/// arrives at every fence).
pub(crate) fn prune_masked_tasks(
    tasks: &mut Vec<Task>,
    mut keep: impl FnMut(&Task) -> bool,
) -> (usize, usize) {
    let before = tasks.len();
    let mut skipped_k = 0;
    tasks.retain(|t| {
        let live = keep(t);
        if !live {
            skipped_k += t.klen();
        }
        live
    });
    (before - tasks.len(), skipped_k)
}

/// The diagonal-shift origin for the process at grid coordinates
/// `(i, j)`: neighbours on the same node (which differ in `j`, and on
/// wide nodes in `i` too) start at different panels.
pub fn diagonal_shift_origin(i: usize, j: usize, aparts: usize) -> usize {
    (i + j) % aparts.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_partitions_give_one_task_per_panel() {
        let tasks = build_tasks(100, 4, 4);
        assert_eq!(tasks.len(), 4);
        for (l, t) in tasks.iter().enumerate() {
            assert_eq!(t.la, l);
            assert_eq!(t.lb, l);
            assert_eq!(t.klen(), 25);
            assert_eq!(t.rel_a(), 0);
            assert_eq!(t.rel_b(), 0);
        }
    }

    #[test]
    fn mismatched_partitions_tile_k_exactly() {
        for (k, a, b) in [(100, 3, 5), (7, 2, 3), (128, 8, 16), (11, 11, 2)] {
            let tasks = build_tasks(k, a, b);
            let mut cursor = 0;
            for t in &tasks {
                assert_eq!(t.k0, cursor, "gap at {cursor} (k={k},a={a},b={b})");
                assert!(t.k1 > t.k0);
                cursor = t.k1;
                // Segment must lie inside its panels.
                assert!(t.k0 >= chunk_start(k, a, t.la));
                assert!(t.k1 <= chunk_start(k, a, t.la) + chunk_len(k, a, t.la));
                assert!(t.k0 >= chunk_start(k, b, t.lb));
                assert!(t.k1 <= chunk_start(k, b, t.lb) + chunk_len(k, b, t.lb));
                assert_eq!(t.rel_a(), t.k0 - chunk_start(k, a, t.la));
                assert_eq!(t.rel_b(), t.k0 - chunk_start(k, b, t.lb));
            }
            assert_eq!(cursor, k);
        }
    }

    /// The reservation is the length: on every small partition pair,
    /// including more panels than k (empty panels at the end).
    #[test]
    fn task_count_is_the_built_length() {
        for k in 1..40 {
            for a in 1..12 {
                for b in 1..12 {
                    let tasks = build_tasks(k, a, b);
                    assert_eq!(task_count(k, a, b), tasks.len(), "k={k} a={a} b={b}");
                    assert_eq!(tasks.capacity(), tasks.len(), "k={k} a={a} b={b}");
                }
            }
        }
    }

    /// Each task's locality is asked once, and the order is the two-pass
    /// one: local tasks in k order, then the remote ones rotated.
    #[test]
    fn locality_is_tested_once_per_task() {
        let tasks = build_tasks(90, 9, 5);
        let mut asked = 0;
        let order = order_tasks(tasks.len(), &tasks, 9, 4, true, |t| {
            asked += 1;
            t.la % 3 == 1
        });
        assert_eq!(asked, tasks.len());
        let local: Vec<usize> = (0..tasks.len()).filter(|&i| tasks[i].la % 3 == 1).collect();
        let mut remote: Vec<usize> = (0..tasks.len()).filter(|&i| tasks[i].la % 3 != 1).collect();
        let rot = 4 % remote.len();
        remote.rotate_left(rot);
        assert_eq!(order, [local, remote].concat());
    }

    #[test]
    fn segment_count_bounded_by_sum_of_parts() {
        let tasks = build_tasks(1000, 8, 16);
        assert!(tasks.len() < 8 + 16);
        assert!(tasks.len() >= 16);
    }

    #[test]
    fn order_is_a_permutation() {
        let tasks = build_tasks(64, 4, 8);
        let order = order_tasks(tasks.len(), &tasks, 4, 2, true, |t| t.la == 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..tasks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn rotation_starts_at_shift_panel() {
        let tasks = build_tasks(64, 4, 4);
        let order = order_tasks(tasks.len(), &tasks, 4, 2, false, |_| false);
        assert_eq!(tasks[order[0]].la, 2);
        // Cyclic k-order is preserved.
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn smp_first_pulls_local_tasks_forward_preserving_order() {
        let tasks = build_tasks(100, 5, 5);
        // Panels 1 and 3 are "local".
        let order = order_tasks(tasks.len(), &tasks, 5, 0, true, |t| t.la == 1 || t.la == 3);
        assert_eq!(tasks[order[0]].la, 1);
        assert_eq!(tasks[order[1]].la, 3);
        // Remote remainder keeps cyclic order 0, 2, 4 rotated from 0.
        let remote: Vec<usize> = order[2..].iter().map(|&i| tasks[i].la).collect();
        assert_eq!(remote, vec![0, 2, 4]);
    }

    #[test]
    fn neighbours_get_different_shift_origins() {
        let a = diagonal_shift_origin(0, 0, 4);
        let b = diagonal_shift_origin(0, 1, 4);
        let c = diagonal_shift_origin(1, 0, 4);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prune_drops_rejected_tasks_and_counts_k() {
        let mut tasks = build_tasks(100, 5, 5); // 5 tasks of k-width 20
        let (pruned, skipped_k) = prune_masked_tasks(&mut tasks, |t| t.la % 2 == 0);
        assert_eq!(pruned, 2);
        assert_eq!(skipped_k, 40);
        assert_eq!(
            tasks.iter().map(|t| t.la).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        // Survivors still order cleanly, including with a shift that
        // points at a pruned panel (falls back to the list head).
        let order = order_tasks(tasks.len(), &tasks, 5, 3, false, |_| false);
        assert_eq!(order.len(), 3);

        // Pruning everything leaves a valid empty list.
        let (pruned, skipped_k) = prune_masked_tasks(&mut tasks, |_| false);
        assert_eq!(pruned, 3);
        assert_eq!(skipped_k, 60);
        assert!(tasks.is_empty());
        let order = order_tasks(0, &tasks, 5, 2, true, |_| true);
        assert!(order.is_empty());
    }

    #[test]
    fn single_panel_degenerate() {
        let tasks = build_tasks(10, 1, 1);
        assert_eq!(tasks.len(), 1);
        let order = order_tasks(1, &tasks, 1, 5, true, |_| true);
        assert_eq!(order, vec![0]);
    }
}
