//! Rank-window view over any backend: the replication layers'
//! communicator.
//!
//! c-fold replication partitions the `P` global ranks into `c`
//! contiguous *layers* of `P/c` ranks; each layer runs the ordinary
//! SRUMMA schedule over its own k-slice as if it were the whole
//! machine. `SubComm` makes that literal: it renumbers this rank into
//! the layer (`global − base`), reports the layer's size and topology,
//! and forwards every operation to the wrapped backend. Layer-local
//! distributed matrices carry [`CostMap::Base`](crate::dist::CostMap)
//! so the backend still costs and classifies transfers against the
//! *global* rank space.
//!
//! **Barriers are global.** Every rank program in a replicated run is
//! straight-line symmetric code executing the identical barrier
//! sequence, so a layer's split barrier simply forwards to the
//! machine-wide one, which is also what keeps the virtual
//! backend's BSP segment recombination aligned across layers.

use crate::comm::{Comm, GetHandle, TaskSpan};
use crate::dist::{DistMatrix, Landing};
use srumma_dense::{MatMut, MatRef, Operand, PackedPanel};
use srumma_model::Topology;
use srumma_trace::Recorder;

/// A window of `n` consecutive global ranks `[base, base + n)`
/// presented as a self-contained machine of `n` ranks.
pub struct SubComm<'a, C: Comm> {
    inner: &'a mut C,
    base: usize,
    n: usize,
    topo: Topology,
}

impl<'a, C: Comm> SubComm<'a, C> {
    /// Wrap `inner` (whose rank must lie in `[base, base + n)`) as rank
    /// `inner.rank() − base` of an `n`-rank machine with layout `topo`.
    pub fn new(inner: &'a mut C, base: usize, n: usize, topo: Topology) -> Self {
        assert_eq!(topo.nranks(), n, "sub-topology rank count mismatch");
        let me = inner.rank();
        assert!(
            me >= base && me < base + n,
            "rank {me} outside window [{base}, {})",
            base + n
        );
        SubComm {
            inner,
            base,
            n,
            topo,
        }
    }
}

impl<C: Comm> Comm for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank() - self.base
    }

    fn nranks(&self) -> usize {
        self.n
    }

    fn topology(&self) -> Topology {
        self.topo
    }

    fn prefer_direct_access(&self, owner: usize) -> bool {
        self.inner.prefer_direct_access(self.base + owner)
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn recorder(&mut self) -> &mut Recorder {
        self.inner.recorder()
    }

    /// Machine-wide barrier (see the module docs): every layer arrives.
    fn barrier_try(&mut self) -> bool {
        self.inner.barrier_try()
    }

    fn task_begin(&mut self) -> Option<TaskSpan> {
        self.inner.task_begin()
    }

    fn task_end(&mut self, span: Option<TaskSpan>, label: impl FnOnce() -> String) {
        self.inner.task_end(span, label);
    }

    fn ws_grow_count(&self) -> u64 {
        self.inner.ws_grow_count()
    }

    fn lease_buf(&mut self, panel: &mut PackedPanel) {
        self.inner.lease_buf(panel);
    }

    fn return_buf(&mut self, panel: &mut PackedPanel) {
        self.inner.return_buf(panel);
    }

    // One-sided operations forward untranslated: `owner` indexes a slot
    // of `mat`, whose `CostMap` already maps slots to global ranks.
    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        self.inner.nbget(mat, owner, into)
    }

    fn wait(&mut self, h: GetHandle) {
        self.inner.wait(h);
    }

    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        self.inner.nbput(mat, owner, data)
    }

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        self.inner.acc(mat, owner, scale, data);
    }

    fn fence(&mut self) {
        self.inner.fence();
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: Option<Operand<'_>>,
        b: Option<Operand<'_>>,
        beta: f64,
        c: Option<MatMut<'_>>,
        direct: bool,
        label: &str,
    ) {
        self.inner
            .gemm(m, n, k, alpha, a, b, beta, c, direct, label);
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64) {
        self.inner.send(self.base + dst, tag, data, bytes);
    }

    fn recv_try(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) -> bool {
        self.inner.recv_try(self.base + src, tag, buf, bytes)
    }

    fn sendrecv_try(
        &mut self,
        dst: usize,
        tag: u64,
        send_data: &[f64],
        send_bytes: u64,
        src: usize,
        recv_buf: &mut Vec<f64>,
        recv_bytes: u64,
    ) -> bool {
        self.inner.sendrecv_try(
            self.base + dst,
            tag,
            send_data,
            send_bytes,
            self.base + src,
            recv_buf,
            recv_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::thread_run;

    #[test]
    fn window_renumbers_ranks_and_translates_messages() {
        let res = thread_run(4, |c| {
            let base = if c.rank() < 2 { 0 } else { 2 };
            let topo = Topology::single_domain(2);
            let mut sub = SubComm::new(c, base, 2, topo);
            assert_eq!(sub.nranks(), 2);
            let me = sub.rank();
            let peer = 1 - me;
            let mut buf = Vec::new();
            // Exchange within the window: layer-local ranks 0↔1.
            // The closure host's split calls block: the first completes.
            assert!(sub.sendrecv_try(peer, 7, &[me as f64], 8, peer, &mut buf, 8));
            (me, buf[0] as usize)
        });
        assert_eq!(res.outputs, vec![(0, 1), (1, 0), (0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn rank_outside_window_is_rejected() {
        thread_run(4, |c| {
            let _ = SubComm::new(c, 0, 2, Topology::single_domain(2));
        });
    }
}
