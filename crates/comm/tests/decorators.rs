//! The one `Comm` decorator passes every trait method through.
//!
//! `SubComm<C>` wraps a communicator by re-implementing the whole trait.
//! A split call it forgets (the barrier and the receives) does not
//! compile: the trait gives them no default. Any other method it forgets
//! falls back to the trait's default — for a task span, a clock read a
//! simulated rank may not make; for `lease_buf` a silent loss of buffer
//! pooling — and nothing else in the suite would notice. A recording
//! fake notes what reaches it; each call made through the decorator must
//! reach it exactly as the same call made directly does, and bring the
//! fake's (deliberately non-default) answer back.

use srumma_comm::{Comm, DistMatrix, GetHandle, Landing, SubComm, TaskSpan};
use srumma_dense::{active_kernel, MatMut, MatRef, Op, Operand, PackedPanel, Side};
use srumma_model::{ProcGrid, Topology};
use srumma_trace::Recorder;
use std::cell::RefCell;

/// Global rank 5 of 8 on nodes of 2. Every answer differs from the
/// trait's default for that method, so a default taken silently shows
/// in the result as well as in the log.
struct Fake {
    log: RefCell<Vec<String>>,
    recorder: Recorder,
}

impl Fake {
    fn new() -> Self {
        Fake {
            log: RefCell::new(Vec::new()),
            recorder: Recorder::disabled(5),
        }
    }

    fn note(&self, call: String) {
        self.log.borrow_mut().push(call);
    }
}

/// What a panel holds, as the log and the caller see it.
fn shape(panel: &PackedPanel) -> String {
    let v = panel.view();
    format!("{}x{}", v.lanes(), v.depth())
}

/// Leave a `1 × depth` block in `panel`: the fake's visible mark.
fn mark(panel: &mut PackedPanel, side: Side, depth: usize) {
    let ones = vec![1.0; depth];
    let src = match side {
        Side::A(Op::N) | Side::B(Op::T) => MatRef::new(1, depth, depth, &ones),
        Side::A(Op::T) | Side::B(Op::N) => MatRef::new(depth, 1, 1, &ones),
    };
    panel.pack(side, active_kernel(), src);
}

impl Comm for Fake {
    fn rank(&self) -> usize {
        self.note("rank".into());
        5
    }
    fn nranks(&self) -> usize {
        self.note("nranks".into());
        8
    }
    fn topology(&self) -> Topology {
        self.note("topology".into());
        Topology::new(8, 2)
    }
    fn same_domain(&self, other: usize) -> bool {
        self.note(format!("same_domain({other})"));
        other == 6 // not what Topology::new(8, 2) says of rank 5
    }
    fn prefer_direct_access(&self, owner: usize) -> bool {
        self.note(format!("prefer_direct_access({owner})"));
        owner == 6
    }
    fn now(&self) -> f64 {
        self.note("now".into());
        42.5
    }
    fn recorder(&mut self) -> &mut Recorder {
        self.note("recorder".into());
        &mut self.recorder
    }
    fn barrier_try(&mut self) -> bool {
        self.note("barrier_try".into());
        false
    }
    fn task_begin(&mut self) -> Option<TaskSpan> {
        self.note("task_begin".into());
        Some(TaskSpan::Mark(11))
    }
    fn task_end(&mut self, span: Option<TaskSpan>, label: impl FnOnce() -> String) {
        self.note(format!("task_end({span:?}, {})", label()));
    }
    fn ws_grow_count(&self) -> u64 {
        self.note("ws_grow_count".into());
        7
    }
    fn lease_buf(&mut self, panel: &mut PackedPanel) {
        self.note(format!("lease_buf({})", shape(panel)));
        mark(panel, Side::A(Op::N), 2);
    }
    fn return_buf(&mut self, panel: &mut PackedPanel) {
        self.note(format!("return_buf({})", shape(panel)));
        panel.clear();
    }
    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let dims = mat.block_dims(owner);
        match into {
            Landing::Rows(buf) => {
                self.note(format!("nbget({dims:?}, {owner}, rows {})", buf.len()));
                buf.push(2.0);
            }
            Landing::Packed(panel, side) => {
                self.note(format!(
                    "nbget({dims:?}, {owner}, {side:?} {})",
                    shape(panel)
                ));
                mark(panel, side, 3);
            }
        }
        GetHandle::Virt(77.0)
    }
    fn wait(&mut self, h: GetHandle) {
        self.note(format!("wait({h:?})"));
    }
    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        self.note(format!(
            "nbput({:?}, {owner}, {data:?})",
            mat.block_dims(owner)
        ));
        GetHandle::Virt(78.0)
    }
    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        let (dims, data) = (mat.block_dims(owner), data.map(|d| d.to_matrix()));
        self.note(format!("acc({dims:?}, {owner}, {scale}, {data:?})"));
    }
    fn fence(&mut self) {
        self.note("fence".into());
    }
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
        let side = |x: Option<Operand<'_>>| match x {
            None => "none".to_string(),
            Some(Operand::Plain(v, op)) => format!("plain {op:?} {}x{}", v.rows(), v.cols()),
            Some(Operand::Packed(p)) => format!("packed {}x{}", p.lanes(), p.depth()),
        };
        let (a, b) = (side(a), side(b));
        self.note(format!(
            "gemm({m}, {n}, {k}, {alpha}, {a}, {b}, {beta}, {}, {direct}, {label})",
            c.is_some()
        ));
    }
    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64) {
        self.note(format!("send({dst}, {tag}, {data:?}, {bytes})"));
    }
    fn recv_try(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) -> bool {
        self.note(format!("recv_try({src}, {tag}, {bytes})"));
        buf.push(5.0);
        false
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
        self.note(format!(
            "sendrecv_try({dst}, {tag}, {send_data:?}, {send_bytes}, {src}, {recv_bytes})"
        ));
        recv_buf.push(6.0);
        false
    }
}

/// One call of every trait method, as `(method, what the caller got
/// back)`. `peer` stands wherever a *rank* is named; matrix slots and
/// tags are fixed.
fn call_all<C: Comm>(c: &mut C, peer: usize) -> Vec<(&'static str, String)> {
    let mat = DistMatrix::create_virtual(ProcGrid::new(2, 2), 6, 10);
    let a = [1.0; 6];
    let a = Some(Operand::Plain(MatRef::new(3, 2, 2, &a), Op::T));
    let mut buf = vec![0.0; 3];
    let mut panel = PackedPanel::new();
    let mut seen = vec![
        ("rank", c.rank().to_string()),
        ("nranks", c.nranks().to_string()),
        ("topology", format!("{:?}", c.topology())),
        ("same_domain", c.same_domain(peer).to_string()),
        ("prefer_direct", c.prefer_direct_access(peer).to_string()),
        ("now", c.now().to_string()),
        ("recorder", c.recorder().rank().to_string()),
        ("barrier_try", c.barrier_try().to_string()),
        ("task_begin", format!("{:?}", c.task_begin())),
        ("ws_grow_count", c.ws_grow_count().to_string()),
        (
            "nbget",
            format!("{:?}", c.nbget(&mat, 3, Landing::Rows(&mut buf))),
        ),
        (
            "nbget packed",
            format!(
                "{:?}",
                c.nbget(&mat, 1, Landing::Packed(&mut panel, Side::B(Op::T)))
            ),
        ),
        ("landed", shape(&panel)),
        ("nbput", format!("{:?}", c.nbput(&mat, 2, &[1.5, 2.5]))),
    ];
    c.lease_buf(&mut panel);
    seen.push(("leased", shape(&panel)));
    let b = Some(Operand::Packed(panel.view()));
    c.gemm(2, 1, 2, 0.5, None, b, 0.0, None, false, "packed");
    c.return_buf(&mut panel);
    seen.push(("returned", shape(&panel)));
    c.wait(GetHandle::Virt(9.0));
    c.get(&mat, 3, &mut buf);
    c.put(&mat, 2, &[1.5, 2.5]);
    c.acc(&mat, 1, -2.0, Some(MatRef::new(1, 1, 1, &[0.5])));
    c.fence();
    c.gemm(2, 4, 3, 1.5, a, None, 1.0, None, true, "lbl");
    c.send(peer, 31, &[9.0], 8);
    let split = (
        c.recv_try(peer, 34, &mut buf, 8),
        (c.sendrecv_try(peer, 35, &[7.0], 8, peer, &mut buf, 40)),
    );
    seen.push(("split receives", format!("{split:?}")));
    c.task_end(Some(TaskSpan::At(2.5)), || "lbl".into());
    // Every buffer handed down came back with what the fake did to it.
    seen.push(("buf", format!("{buf:?}")));
    seen
}

/// What the same calls, made directly on global rank 5 about its peer
/// 6, return and leave in the log.
fn direct() -> (Vec<(&'static str, String)>, Vec<String>) {
    let mut fake = Fake::new();
    let seen = call_all(&mut fake, 6);
    (seen, fake.log.into_inner())
}

/// A decorator may ask the wrapped communicator who it is.
fn without_rank_queries(mut log: Vec<String>) -> Vec<String> {
    log.retain(|call| call != "rank");
    log
}

/// The trait has 24 methods; `get` and `put` are its own compositions,
/// which the fake leaves alone, so they show as the `nbget`/`nbput` +
/// `wait` they issue. The other 22 must each have been reached.
#[test]
fn every_trait_method_is_called() {
    let mut reached: Vec<String> = direct()
        .1
        .iter()
        .map(|call| {
            call.split('(')
                .next()
                .expect("split yields one item")
                .into()
        })
        .collect();
    reached.sort();
    reached.dedup();
    assert_eq!(reached.len(), 22, "{reached:?}");
}

/// The window `[4, 8)` as a machine of 4 on nodes of 2: global rank 5 is
/// its rank 1, its peer 2 is global rank 6. Size, layout and the
/// locality that follows from them are the window's own answers; every
/// other call reaches the wrapped communicator, ranks translated, tags
/// and matrix slots untouched.
#[test]
fn sub_comm_passes_every_method_through_with_ranks_translated() {
    let window = Topology::new(4, 2);
    let mut fake = Fake::new();
    let seen = call_all(&mut SubComm::new(&mut fake, 4, 4, window), 2);
    let (mut want_seen, mut want_log) = direct();
    // Window ranks 1 and 2 sit on different nodes.
    let own = [
        "1".into(),
        "4".into(),
        format!("{window:?}"),
        "false".into(),
    ];
    for (want, own) in want_seen.iter_mut().zip(own) {
        want.1 = own;
    }
    want_log.retain(|call| !["nranks", "topology", "same_domain(6)"].contains(&call.as_str()));
    let log = without_rank_queries(fake.log.into_inner());
    assert_eq!((seen, log), (want_seen, without_rank_queries(want_log)));
}
