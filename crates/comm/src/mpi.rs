//! Two-sided collectives over `Comm::send`/`Comm::recv`.
//!
//! The message-passing baselines need what ScaLAPACK's BLACS provides:
//! broadcasts along process-grid rows and columns (SUMMA) and ring
//! shifts (Cannon). These are built portably on the trait's send/recv
//! with the classic binomial-tree broadcast, so their cost under the
//! simulator reflects real collective behaviour (log-depth latency,
//! link contention, rendezvous stalls for big panels).

use crate::comm::Comm;

/// Binomial-tree broadcast of `data` from `group[root_idx]` to every
/// rank in `group`. Every member must call this with identical `group`
/// and `root_idx`. On non-root ranks `data` is overwritten (cleared and
/// filled; stays empty in modeled runs). `bytes` is the logical payload
/// size.
pub fn bcast<C: Comm>(
    comm: &mut C,
    group: &[usize],
    root_idx: usize,
    data: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) {
    let n = group.len();
    if n <= 1 {
        return;
    }
    let me_idx = group
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller not in the broadcast group");
    // Re-index so the root is virtual rank 0.
    let vrank = (me_idx + n - root_idx) % n;

    // Receive phase: find the highest bit of vrank — the parent sent in
    // that round.
    if vrank != 0 {
        let round = usize::BITS - 1 - vrank.leading_zeros();
        let parent_v = vrank - (1 << round);
        let parent = group[(parent_v + root_idx) % n];
        comm.recv(parent, tag, data, bytes);
    }
    // Send phase: forward to children in increasing round order.
    let start_round = if vrank == 0 {
        0
    } else {
        (usize::BITS - vrank.leading_zeros()) as usize
    };
    let mut round = start_round;
    while (1usize << round) < n {
        let child_v = vrank + (1 << round);
        if child_v < n {
            let child = group[(child_v + root_idx) % n];
            comm.send(child, tag, data, bytes);
        }
        round += 1;
    }
}

/// Ring broadcast of `data` from `group[root_idx]`: the root sends to
/// its ring successor, every member forwards to the next until the ring
/// closes. One bcast has `n − 1` *sequential* hops (worse latency than
/// the binomial tree's `⌈log₂ n⌉`), but every link is used exactly once
/// and consecutive broadcasts with rotating roots pipeline around the
/// ring — the communication schedule DIMMA [Choi '97] exploits, exposed
/// here as the `Ring` SUMMA variant.
pub fn bcast_ring<C: Comm>(
    comm: &mut C,
    group: &[usize],
    root_idx: usize,
    data: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) {
    let n = group.len();
    if n <= 1 {
        return;
    }
    let me_idx = group
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller not in the broadcast group");
    let vrank = (me_idx + n - root_idx) % n; // 0 = root
    let next = group[(me_idx + 1) % n];
    let prev = group[(me_idx + n - 1) % n];
    if vrank == 0 {
        comm.send(next, tag, data, bytes);
    } else {
        comm.recv(prev, tag, data, bytes);
        if vrank != n - 1 {
            comm.send(next, tag, data, bytes);
        }
    }
}

/// Ring shift within `group`: send `buf` to the member `shift`
/// positions ahead, receive from the member `shift` behind, replacing
/// `buf` (Cannon's skew/shift step). Deadlock-free.
pub fn ring_shift<C: Comm>(
    comm: &mut C,
    group: &[usize],
    shift: usize,
    buf: &mut Vec<f64>,
    bytes: u64,
    tag: u64,
) {
    let n = group.len();
    if n <= 1 || shift.is_multiple_of(n) {
        return;
    }
    let me_idx = group
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller not in the shift group");
    let dst = group[(me_idx + shift) % n];
    let src = group[(me_idx + n - shift % n) % n];
    let send_data = std::mem::take(buf);
    comm.sendrecv(dst, tag, &send_data, bytes, src, buf, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::thread_run;

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for root in 0..5 {
            let res = thread_run(5, |c| {
                let group: Vec<usize> = (0..5).collect();
                let mut data = if c.rank() == root {
                    vec![42.0, 7.0]
                } else {
                    Vec::new()
                };
                bcast(c, &group, root, &mut data, 16, 9);
                data
            });
            for out in &res.outputs {
                assert_eq!(out, &vec![42.0, 7.0], "root {root}");
            }
        }
    }

    #[test]
    fn bcast_within_subgroup_leaves_others_alone() {
        let res = thread_run(6, |c| {
            // Broadcast only among even ranks.
            let group = vec![0, 2, 4];
            if group.contains(&c.rank()) {
                let mut data = if c.rank() == 2 { vec![5.0] } else { Vec::new() };
                bcast(c, &group, 1, &mut data, 8, 3);
                data
            } else {
                vec![-1.0]
            }
        });
        assert_eq!(res.outputs[0], vec![5.0]);
        assert_eq!(res.outputs[2], vec![5.0]);
        assert_eq!(res.outputs[4], vec![5.0]);
        assert_eq!(res.outputs[1], vec![-1.0]);
    }

    #[test]
    fn ring_shift_rotates_payloads() {
        let res = thread_run(4, |c| {
            let group: Vec<usize> = (0..4).collect();
            let mut buf = vec![c.rank() as f64];
            ring_shift(c, &group, 1, &mut buf, 8, 2);
            buf[0] as usize
        });
        assert_eq!(res.outputs, vec![3, 0, 1, 2]);
    }

    #[test]
    fn ring_shift_by_multiple_positions() {
        let res = thread_run(6, |c| {
            let group: Vec<usize> = (0..6).collect();
            let mut buf = vec![c.rank() as f64];
            ring_shift(c, &group, 2, &mut buf, 8, 2);
            buf[0] as usize
        });
        assert_eq!(res.outputs, vec![4, 5, 0, 1, 2, 3]);
    }

    #[test]
    fn zero_shift_is_identity() {
        let res = thread_run(3, |c| {
            let group: Vec<usize> = (0..3).collect();
            let mut buf = vec![c.rank() as f64];
            ring_shift(c, &group, 0, &mut buf, 8, 2);
            buf[0] as usize
        });
        assert_eq!(res.outputs, vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::exec::thread_run;

    #[test]
    fn ring_bcast_delivers_from_any_root() {
        for root in 0..5 {
            let res = thread_run(5, |c| {
                let group: Vec<usize> = (0..5).collect();
                let mut data = if c.rank() == root {
                    vec![root as f64, 42.0]
                } else {
                    Vec::new()
                };
                bcast_ring(c, &group, root, &mut data, 16, 77);
                data
            });
            for out in &res.outputs {
                assert_eq!(out, &vec![root as f64, 42.0], "root {root}");
            }
        }
    }

    #[test]
    fn ring_bcast_two_members() {
        let res = thread_run(2, |c| {
            let group = vec![0, 1];
            let mut data = if c.rank() == 1 { vec![9.0] } else { Vec::new() };
            bcast_ring(c, &group, 1, &mut data, 8, 3);
            data[0]
        });
        assert_eq!(res.outputs, vec![9.0, 9.0]);
    }

    #[test]
    fn ring_bcast_singleton_is_noop() {
        let res = thread_run(1, |c| {
            let mut data = vec![1.0];
            bcast_ring(c, &[0], 0, &mut data, 8, 1);
            data[0]
        });
        assert_eq!(res.outputs, vec![1.0]);
    }
}
