//! The pinned program surface: every call the ledger makes into the
//! SRUMMA workspace goes through this file, so a refactor of the public
//! API (ROADMAP: one `Run` plan) has exactly one place to re-wire and
//! the list in README.md says what must stay callable. Nothing here
//! measures; callers time these functions from outside.

use srumma_comm::{exec_run, thread_run, Comm, DistMatrix};
use srumma_core::batch;
use srumma_core::driver::{self, default_grid};
use srumma_core::hier::{measure_flat_virtual, measure_hier_virtual};
use srumma_core::layout::{dist_a, dist_b, dist_c, scatter_operands};
use srumma_core::taskorder::{build_tasks, order_tasks};
use srumma_core::{Algorithm, SrummaOptions};
use srumma_dense::kernel::ACC_LEN;
use srumma_dense::pack::{pack_a, pack_b};
use srumma_dense::{active_kernel, dgemm_ws, GemmWorkspace};
use srumma_model::machine::RanksPerDomain;
use srumma_model::Machine;

pub use srumma_core::{BatchEntry, BatchResult, BatchSpec, GemmSpec, ShmemFlavor};
pub use srumma_dense::{rel_fro_error, Matrix, Op};
pub use srumma_trace::{chrome_trace_json, RunStats, TraceEvent};

/// Executor pool size of every host run. Fixed, never host-derived, so
/// the same commit schedules the same way wherever the ledger runs.
pub const WORKERS: usize = 2;

fn srumma(flavor: ShmemFlavor) -> Algorithm {
    Algorithm::Srumma(SrummaOptions {
        shmem: flavor,
        ..SrummaOptions::default()
    })
}

/// What one executor multiply hands back.
pub struct ExecRun {
    pub c: Matrix,
    /// `ExecRunResult.wall_seconds`: the parallel section only, without
    /// distribution, scatter and gather.
    pub parallel_section_s: f64,
    pub stats: RunStats,
    /// Empty unless traced.
    pub trace: Vec<TraceEvent>,
}

impl ExecRun {
    fn of<T>((c, r): (Matrix, srumma_comm::ExecRunResult<T>)) -> Self {
        ExecRun {
            c,
            parallel_section_s: r.wall_seconds,
            stats: r.stats,
            trace: r.trace,
        }
    }
}

pub fn multiply_exec(
    nranks: usize,
    workers: usize,
    flavor: ShmemFlavor,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> ExecRun {
    ExecRun::of(driver::multiply_exec(
        nranks,
        workers,
        &srumma(flavor),
        spec,
        a,
        b,
    ))
}

pub fn multiply_exec_traced(
    nranks: usize,
    flavor: ShmemFlavor,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> ExecRun {
    ExecRun::of(driver::multiply_exec_traced(
        nranks,
        WORKERS,
        &srumma(flavor),
        spec,
        a,
        b,
    ))
}

/// One OS thread per rank; returns `(C, parallel-section seconds)`.
pub fn multiply_threads(
    nranks: usize,
    flavor: ShmemFlavor,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, f64) {
    driver::multiply_threads(nranks, &srumma(flavor), spec, a, b)
}

pub fn serial_reference(spec: &GemmSpec, a: &Matrix, b: &Matrix) -> Matrix {
    driver::serial_reference(spec, a, b)
}

pub fn multiply_batch_exec(batch: &BatchSpec, nranks: usize, workers: usize) -> BatchResult {
    batch::multiply_batch_exec(batch, nranks, workers)
}

pub fn multiply_batch_traced(
    batch: &BatchSpec,
    nranks: usize,
) -> (BatchResult, RunStats, Vec<TraceEvent>) {
    let (res, traced) = batch::multiply_batch_traced(batch, nranks, WORKERS);
    (res, traced.stats, traced.trace)
}

pub fn batch_serial_reference(batch: &BatchSpec) -> Vec<Matrix> {
    batch::batch_serial_reference(batch)
}

// ---- sim / model / comm::virt ---------------------------------------

/// Discrete-event simulation of SRUMMA (or SUMMA, the `pdgemm` stand-in)
/// on the modeled Linux + Myrinet cluster, virtual matrices.
pub fn measure_modeled(summa: bool, nranks: usize, n: usize) -> RunStats {
    let alg = if summa {
        Algorithm::summa_default()
    } else {
        Algorithm::srumma_default()
    };
    driver::measure_modeled(
        &Machine::linux_myrinet(),
        nranks,
        &alg,
        &GemmSpec::square(n),
    )
}

/// The machine of the repo's 64k-rank crossover study: the Myrinet
/// profile widened to 8-way nodes, so node-group staging has shared
/// off-node demand to merge.
fn wide_node_cluster() -> Machine {
    let mut m = Machine::linux_myrinet();
    m.ranks_per_domain = RanksPerDomain::Fixed(8);
    m
}

pub fn flat_virtual(nranks: usize, n: usize) -> RunStats {
    measure_flat_virtual(
        &wide_node_cluster(),
        nranks,
        WORKERS,
        &SrummaOptions::default(),
        &GemmSpec::square(n).with_scalars(1.0, 0.0),
    )
}

pub fn hier_virtual(nranks: usize, n: usize) -> RunStats {
    measure_hier_virtual(
        &wide_node_cluster(),
        nranks,
        WORKERS,
        &SrummaOptions::default(),
        &GemmSpec::square(n).with_scalars(1.0, 0.0),
    )
}

// ---- core::layout + comm::DistMatrix --------------------------------

/// The three distributed matrices of one multiply.
pub struct Dists {
    spec: GemmSpec,
    da: DistMatrix,
    db: DistMatrix,
    dc: DistMatrix,
}

pub fn dist_create(spec: &GemmSpec, nranks: usize) -> Dists {
    let grid = default_grid(nranks);
    Dists {
        spec: *spec,
        da: dist_a(spec, grid, true),
        db: dist_b(spec, grid, true),
        dc: dist_c(spec, grid, true),
    }
}

impl Dists {
    pub fn scatter(&self, a: &Matrix, b: &Matrix) {
        scatter_operands(&self.spec, &self.da, &self.db, a, b);
    }

    pub fn gather(&self) -> Matrix {
        self.dc.gather()
    }

    /// The data-movement half of a get, once for every block of A and B;
    /// returns the bytes copied.
    pub fn copy_all_blocks(&self, buf: &mut Vec<f64>) -> u64 {
        let mut bytes = 0;
        for d in [&self.da, &self.db] {
            for rank in 0..d.grid().nranks() {
                d.copy_block_into(rank, buf);
                bytes += d.block_bytes(rank);
            }
        }
        bytes
    }
}

// ---- core::taskorder ------------------------------------------------

/// Build and order one rank's task list; returns the task count.
pub fn tasklist(spec: &GemmSpec, nranks: usize) -> usize {
    let grid = default_grid(nranks);
    let tasks = build_tasks(spec.k, grid.q, grid.p);
    order_tasks(tasks.len(), &tasks, grid.q, 0, true, |_| true).len()
}

// ---- comm: pools and barriers ---------------------------------------

/// An executor run whose ranks do nothing: pool spawn, seeding and join.
pub fn exec_spawn(nranks: usize) {
    exec_run(nranks, WORKERS, |_| ());
}

/// A thread-per-rank run whose ranks do nothing.
pub fn thread_spawn(nranks: usize) {
    thread_run(nranks, |_| ());
}

/// `count` full barriers in an otherwise empty executor run; returns the
/// parallel-section seconds.
pub fn exec_barriers(nranks: usize, count: usize) -> f64 {
    exec_run(nranks, WORKERS, |comm| {
        for _ in 0..count {
            comm.barrier();
        }
    })
    .wall_seconds
}

// ---- dense ----------------------------------------------------------

/// The dgemm one rank-task issues: rank (0,0)'s C block against the
/// first k-segment, with operand blocks in *stored* orientation (a `T`
/// operand is stored transposed and packed through the `T` path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskShape {
    pub ta: Op,
    pub tb: Op,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl TaskShape {
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Computed (not measured) arithmetic intensity of the task: flops
    /// over the bytes of A, B and C read plus C written, each once.
    pub fn flops_per_byte(&self) -> f64 {
        let words = self.m * self.k + self.k * self.n + 2 * self.m * self.n;
        self.flops() / (8.0 * words as f64)
    }
}

pub fn task_shape(spec: &GemmSpec, nranks: usize) -> TaskShape {
    let grid = default_grid(nranks);
    let klen = build_tasks(spec.k, grid.q, grid.p)
        .first()
        .map_or(spec.k, |t| t.klen());
    TaskShape {
        ta: spec.transa,
        tb: spec.transb,
        m: spec.m.div_ceil(grid.p),
        n: spec.n.div_ceil(grid.q),
        k: klen,
    }
}

/// One thread's dense machinery: a [`GemmWorkspace`] that stays warm
/// across calls, plus private buffers for replaying the packing and the
/// micro-kernel on their own.
pub struct Dense {
    ws: GemmWorkspace,
    apack: Vec<f64>,
    bpack: Vec<f64>,
}

impl Dense {
    pub fn new() -> Self {
        let ws = GemmWorkspace::new();
        let (blocks, kernel) = (ws.blocks(), ws.kernel());
        debug_assert_eq!(kernel, active_kernel());
        Dense {
            apack: vec![0.0; blocks.mc.div_ceil(kernel.mr()) * kernel.mr() * blocks.kc],
            bpack: vec![0.0; blocks.nc.div_ceil(kernel.nr()) * kernel.nr() * blocks.kc],
            ws,
        }
    }

    /// `C ← op(A)·op(B)` through the packed, blocked path; `a` and `b`
    /// are the stored operands (`op(a)` is `m × k`).
    pub fn dgemm(&mut self, s: TaskShape, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        dgemm_ws(
            s.ta,
            s.tb,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
            &mut self.ws,
        );
    }

    /// Exactly the `pack_b` / `pack_a` calls [`Self::dgemm`] makes (the
    /// loop nest of `blocked_gemm_ws`), without the kernel.
    pub fn pack_only(&mut self, s: TaskShape, a: &Matrix, b: &Matrix) {
        let (blocks, kernel) = (self.ws.blocks(), self.ws.kernel());
        for jc in (0..s.n).step_by(blocks.nc) {
            let nc = blocks.nc.min(s.n - jc);
            for lc in (0..s.k).step_by(blocks.kc) {
                let kc = blocks.kc.min(s.k - lc);
                pack_b(
                    s.tb,
                    b.as_ref(),
                    lc,
                    jc,
                    kc,
                    nc,
                    kernel.nr(),
                    &mut self.bpack,
                );
                for ic in (0..s.m).step_by(blocks.mc) {
                    let mc = blocks.mc.min(s.m - ic);
                    pack_a(
                        s.ta,
                        a.as_ref(),
                        ic,
                        lc,
                        mc,
                        kc,
                        kernel.mr(),
                        &mut self.apack,
                    );
                }
            }
        }
    }

    /// `iters` back-to-back `Microkernel::run` calls on the first packed
    /// slivers at depth `kc = min(task k, KC)` — what the blocked loop
    /// feeds it; returns the flops performed. Pack first.
    pub fn microkernel(&mut self, task_k: usize, iters: usize) -> f64 {
        let kernel = self.ws.kernel();
        let kc = self.ws.blocks().kc.min(task_k);
        let mut acc = [0.0f64; ACC_LEN];
        for _ in 0..iters {
            kernel.run(
                kc,
                std::hint::black_box(&self.apack[..kernel.mr() * kc]),
                std::hint::black_box(&self.bpack[..kernel.nr() * kc]),
                &mut acc,
            );
        }
        std::hint::black_box(acc);
        2.0 * (kernel.mr() * kernel.nr() * kc * iters) as f64
    }

    pub fn ws_grows(&self) -> u64 {
        self.ws.grow_count()
    }
}
