//! Two-sided collectives over `Comm::send`/`Comm::recv_try`.
//!
//! The message-passing baselines need what ScaLAPACK's BLACS provides:
//! broadcasts along process-grid rows and columns (SUMMA) and ring
//! shifts (Cannon). These are built portably on the trait's send and
//! split receive with the classic binomial-tree broadcast, so their cost
//! under the simulator reflects real collective behaviour (log-depth
//! latency, link contention, rendezvous stalls for big panels).
//!
//! Each is resumable: at most one receive that may park
//! ([`Comm::recv_try`], [`Comm::sendrecv_try`]), then its sends. A call
//! returns `false` when the receive parked — return
//! [`Step::Park`](crate::comm::Step::Park) and call again, with the same
//! arguments, when the rank is stepped next — and `true` once this
//! rank's share is done. Where receives block, the first call does it
//! all and returns `true`.

use crate::comm::Comm;

/// This rank's position in `group`, re-indexed so that the member at
/// `root_idx` is 0.
fn vrank<C: Comm>(comm: &C, group: &[usize], root_idx: usize) -> (usize, usize) {
    let n = group.len();
    let me_idx = group
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller not in the group");
    (me_idx, (me_idx + n - root_idx) % n)
}

/// Binomial-tree broadcast of `data` from `group[root_idx]` to every
/// rank in `group`. Every member must call this with identical `group`
/// and `root_idx`. On non-root ranks `data` is overwritten (cleared and
/// filled; stays empty in modeled runs). `bytes` is the logical payload
/// size. Resumable (see the module docs).
pub fn bcast<C: Comm>(
    comm: &mut C,
    group: &[usize],
    root_idx: usize,
    data: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) -> bool {
    let n = group.len();
    if n <= 1 {
        return true;
    }
    let (_, vrank) = vrank(comm, group, root_idx);
    // Receive phase: find the highest bit of vrank — the parent sent in
    // that round.
    if vrank != 0 {
        let round = usize::BITS - 1 - vrank.leading_zeros();
        let parent_v = vrank - (1 << round);
        let parent = group[(parent_v + root_idx) % n];
        if !comm.recv_try(parent, tag, data, bytes) {
            return false;
        }
    }
    // Send phase: forward to children in increasing round order.
    let mut round = if vrank == 0 {
        0
    } else {
        (usize::BITS - vrank.leading_zeros()) as usize
    };
    while (1usize << round) < n {
        let child_v = vrank + (1 << round);
        if child_v < n {
            let child = group[(child_v + root_idx) % n];
            comm.send(child, tag, data, bytes);
        }
        round += 1;
    }
    true
}

/// Ring broadcast of `data` from `group[root_idx]`: the root sends to
/// its ring successor, every member forwards to the next until the ring
/// closes. One bcast has `n − 1` *sequential* hops (worse latency than
/// the binomial tree's `⌈log₂ n⌉`), but every link is used exactly once
/// and consecutive broadcasts with rotating roots pipeline around the
/// ring — the communication schedule DIMMA [Choi '97] exploits, exposed
/// here as the `Ring` SUMMA variant. Resumable (see the module docs).
pub fn bcast_ring<C: Comm>(
    comm: &mut C,
    group: &[usize],
    root_idx: usize,
    data: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) -> bool {
    let n = group.len();
    if n <= 1 {
        return true;
    }
    let (me_idx, vrank) = vrank(comm, group, root_idx);
    let next = group[(me_idx + 1) % n];
    let prev = group[(me_idx + n - 1) % n];
    if vrank != 0 && !comm.recv_try(prev, tag, data, bytes) {
        return false;
    }
    if vrank != n - 1 {
        comm.send(next, tag, data, bytes);
    }
    true
}

/// Ring shift within `group`: send `buf` to the member `shift`
/// positions ahead, receive from the member `shift` behind, replacing
/// `buf` (Cannon's skew/shift step). Deadlock-free. Resumable (see the
/// module docs): the first call hands `buf`'s contents to the send.
pub fn ring_shift<C: Comm>(
    comm: &mut C,
    group: &[usize],
    shift: usize,
    buf: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) -> bool {
    let n = group.len();
    if n <= 1 || shift.is_multiple_of(n) {
        return true;
    }
    let (me_idx, _) = vrank(comm, group, 0);
    let dst = group[(me_idx + shift) % n];
    let src = group[(me_idx + n - shift % n) % n];
    let send_data = std::mem::take(buf);
    comm.sendrecv_try(dst, tag, &send_data, bytes, src, buf, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{drive, RankProgram, Step};
    use crate::exec::{exec_run_tasks, thread_run, ProgramTask};
    use crate::simbackend::{sim_run_programs, SimOptions};
    use srumma_model::Machine;

    #[derive(Clone, Copy, Debug)]
    pub(super) enum Which {
        Tree,
        Ring,
        Shift,
    }

    /// One rank's share of a collective over `group` (a rank outside it
    /// keeps its `data`), as a program that parks while its receive
    /// waits.
    struct Collective<'g> {
        which: Which,
        group: &'g [usize],
        root: usize,
        bytes: u64,
        data: Vec<f64>,
    }

    impl RankProgram for Collective<'_> {
        type Out = Vec<f64>;

        fn step<C: Comm>(&mut self, comm: &mut C) -> Step<Vec<f64>> {
            let (group, root, data, bytes) = (self.group, self.root, &mut self.data, self.bytes);
            let done = !group.contains(&comm.rank())
                || match self.which {
                    Which::Tree => bcast(comm, group, root, data, bytes, 9),
                    Which::Ring => bcast_ring(comm, group, root, data, bytes, 9),
                    Which::Shift => ring_shift(comm, group, root, data, bytes, 9),
                };
            match done {
                true => Step::Done(std::mem::take(&mut self.data)),
                false => Step::Park,
            }
        }
    }

    /// What each of `n` ranks holds after `which` over `group` from
    /// `root` (by `root` positions, for a shift), `data(rank)` its
    /// payload before — driven on a thread per rank, stepped on the
    /// simulator's one thread and polled on 1 and 2 executor workers,
    /// which must all agree.
    pub(super) fn deliver(
        which: Which,
        n: usize,
        group: &[usize],
        (root, bytes): (usize, u64),
        data: impl Fn(usize) -> Vec<f64> + Sync,
    ) -> Vec<Vec<f64>> {
        let program = |rank| Collective {
            which,
            group,
            root,
            bytes,
            data: data(rank),
        };
        let driven = thread_run(n, |c| drive(c, program(c.rank()))).outputs;
        let opts = SimOptions::new(Machine::linux_myrinet(), n);
        let stepped = sim_run_programs(&opts, program).outputs;
        let case = format!("{which:?} over {group:?} by {root}, {bytes} B");
        assert_eq!(stepped, driven, "simulated: {case}");
        for workers in [1, 2] {
            let polled = exec_run_tasks(n, workers, false, None, None, |comm| {
                let rank = comm.rank();
                Box::new(ProgramTask::new(comm, program(rank)))
            });
            assert_eq!(polled.outputs, driven, "{workers} workers: {case}");
        }
        driven
    }

    /// A broadcast over all `n` ranks of `[root, 42]` from `root`.
    pub(super) fn bcast_all(which: Which, n: usize, root: usize, bytes: u64) -> Vec<Vec<f64>> {
        let all: Vec<usize> = (0..n).collect();
        deliver(which, n, &all, (root, bytes), |rank| match rank == root {
            true => vec![root as f64, 42.0],
            false => Vec::new(),
        })
    }

    /// Each of `n` ranks' `[rank]` after a shift by `shift` positions.
    fn shifted(n: usize, shift: usize) -> Vec<usize> {
        let all: Vec<usize> = (0..n).collect();
        let out = deliver(Which::Shift, n, &all, (shift, 8), |rank| vec![rank as f64]);
        out.iter().map(|v| v[0] as usize).collect()
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for root in 0..5 {
            assert_eq!(
                bcast_all(Which::Tree, 5, root, 16),
                vec![vec![root as f64, 42.0]; 5]
            );
        }
    }

    #[test]
    fn bcast_within_subgroup_leaves_others_alone() {
        // Broadcast only among even ranks, from rank 2.
        let out = deliver(Which::Tree, 6, &[0, 2, 4], (1, 8), |rank| match rank {
            2 => vec![5.0],
            1 | 3 | 5 => vec![-1.0],
            _ => Vec::new(),
        });
        assert_eq!(out, [[5.0], [-1.0]].repeat(3));
    }

    #[test]
    fn ring_shift_rotates_payloads() {
        assert_eq!(shifted(4, 1), [3, 0, 1, 2]);
    }

    #[test]
    fn ring_shift_by_multiple_positions() {
        assert_eq!(shifted(6, 2), [4, 5, 0, 1, 2, 3]);
    }

    #[test]
    fn zero_shift_is_identity() {
        assert_eq!(shifted(3, 0), [0, 1, 2]);
    }

    /// Every collective on 1–8 ranks, from every root (by every shift),
    /// at an eager and a rendezvous size, delivers the payloads it should
    /// on the simulator's one thread and on the executor's workers as on
    /// a thread per rank.
    #[test]
    fn collectives_deliver_on_the_polled_simulator() {
        for n in 1..=8 {
            for root in 0..n {
                let rotated: Vec<usize> = (0..n).map(|rank| (rank + n - root) % n).collect();
                assert_eq!(shifted(n, root), rotated, "shift {root} of {n}");
                for which in [Which::Tree, Which::Ring] {
                    for bytes in [16, 1 << 20] {
                        let want = vec![vec![root as f64, 42.0]; n];
                        assert_eq!(bcast_all(which, n, root, bytes), want, "{which:?}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod ring_tests {
    use super::tests::{bcast_all, Which};

    #[test]
    fn ring_bcast_delivers_from_any_root() {
        for root in 0..5 {
            assert_eq!(
                bcast_all(Which::Ring, 5, root, 16),
                vec![vec![root as f64, 42.0]; 5]
            );
        }
    }

    #[test]
    fn ring_bcast_two_members() {
        assert_eq!(bcast_all(Which::Ring, 2, 1, 8), vec![vec![1.0, 42.0]; 2]);
    }

    #[test]
    fn ring_bcast_singleton_is_noop() {
        assert_eq!(bcast_all(Which::Ring, 1, 0, 8), vec![vec![0.0, 42.0]]);
    }
}
