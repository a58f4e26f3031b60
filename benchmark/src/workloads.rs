//! The five workloads: what each generates from the seed, what one op
//! is, and how an op's output is checked. README.md says why each
//! exists; the one-line version is in [`DEFS`].

use crate::adapter::{
    self, BatchEntry, BatchResult, BatchSpec, ExecRun, GemmSpec, Matrix, Op, RunStats, ShmemFlavor,
    TraceEvent, WORKERS,
};
use crate::spans::Spans;

pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    /// Ops per round of the full ledger — fixed, identical on every
    /// commit, sized for roughly 8 s of timed work per round here.
    pub ops_per_round: usize,
}

pub const DEFS: [Def; 5] = [
    Def {
        name: "square_large",
        why: "C=AB n=1536 on 2x2 ranks: 768^3 rank-tasks, dense does >=90% of the work, comm and scheduler almost none",
        ops_per_round: 90,
    },
    Def {
        name: "manyrank_copy",
        why: "C=AB n=768 on 8x8 ranks, ForceCopy: 96^3 tasks, 1024 gets/op, 63 rank parks; comm and core dominate, kernel at its worst shape",
        ops_per_round: 200,
    },
    Def {
        name: "rect_tn",
        why: "C=A^T B m=n=384 k=6144 on 16 ranks: transposed pack_a, scatter-with-transpose, long k-dominant task lists",
        ops_per_round: 100,
    },
    Def {
        name: "batch_stream",
        why: "64 multiplies n in {64,96,128}, NN/TN/NT, one pool and slot ring: fixed per-multiply costs, epoch fences, inter-entry overlap",
        ops_per_round: 500,
    },
    Def {
        name: "sim_scale",
        why: "DES at 128 ranks n=8000 plus flat and hierarchical virtual-clock runs at 4096 ranks: sim, model, comm::virt with the dense kernel bypassed",
        ops_per_round: 40,
    },
];

/// Largest acceptable `rel_fro_error` against the serial reference.
const TOLERANCE: f64 = 1e-10;

const BATCH_ENTRIES: usize = 64;
const BATCH_RANKS: usize = 16;
const DES_RANKS: usize = 128;
const DES_N: usize = 8000;
const VIRT_RANKS: usize = 4096;
const VIRT_N: usize = 4096;

/// SplitMix64: the harness's own generator, so the program only ever
/// sees finished inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.unit()).collect())
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// One dense multiply on the executor.
pub struct Gemm {
    pub spec: GemmSpec,
    pub nranks: usize,
    pub flavor: ShmemFlavor,
    /// Logical operands (`m × k`, `k × n`), as the drivers take them.
    pub a: Matrix,
    pub b: Matrix,
    /// Whether the ledger's thread-per-rank rung is measured here: only
    /// where two rank threads on two cores still run kernel-sized tasks.
    pub threads_rung: bool,
    reference: Matrix,
}

/// A stream of small multiplies through one pool and one arena.
pub struct Batch {
    pub spec: BatchSpec,
    pub nranks: usize,
    reference: Vec<Matrix>,
}

/// The three simulated runs of one `sim_scale` op.
pub struct SimRuns {
    pub des: RunStats,
    pub flat: RunStats,
    pub hier: RunStats,
}

impl SimRuns {
    pub fn makespans(&self) -> [f64; 3] {
        [self.des.makespan, self.flat.makespan, self.hier.makespan]
    }
}

pub struct Sim {
    /// SUMMA's modeled makespan, simulated once in set-up: its DES host
    /// time is bimodal on small hosts (thread hand-off placement), so it
    /// stays out of the timed op.
    pub summa: RunStats,
    /// The first op's makespans; every later op must reproduce them
    /// bit for bit.
    first: Option<[f64; 3]>,
}

pub enum Workload {
    Gemm(Gemm),
    Batch(Batch),
    Sim(Sim),
}

pub enum Output {
    Gemm(ExecRun),
    Batch(BatchResult),
    Sim(SimRuns),
}

/// One op of the traced pass: the output, plus what the program's own
/// tracing recorded (nothing for `sim_scale`, which has only the
/// harness spans).
pub struct TracedOp {
    pub out: Output,
    pub stats: Option<RunStats>,
    pub events: Vec<TraceEvent>,
}

fn gemm(
    seed: u64,
    spec: GemmSpec,
    nranks: usize,
    flavor: ShmemFlavor,
    threads_rung: bool,
) -> Workload {
    let mut rng = SplitMix::new(seed);
    let a = rng.matrix(spec.m, spec.k);
    let b = rng.matrix(spec.k, spec.n);
    let reference = adapter::serial_reference(&spec, &a, &b);
    Workload::Gemm(Gemm {
        spec,
        nranks,
        flavor,
        a,
        b,
        threads_rung,
        reference,
    })
}

/// Every (size, transpose) pair seven times plus one, in seeded order:
/// the seed decides the stream's order and operand values, never its
/// total work, so `gflops` is comparable across seeds.
fn batch_stream(seed: u64) -> Workload {
    const SIZES: [usize; 3] = [64, 96, 128];
    const TRANS: [(Op, Op); 3] = [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)];
    let mut rng = SplitMix::new(seed);
    let mut shapes: Vec<(usize, (Op, Op))> = (0..BATCH_ENTRIES)
        .map(|i| (SIZES[i % 3], TRANS[(i / 3) % 3]))
        .collect();
    rng.shuffle(&mut shapes);
    let mut spec = BatchSpec::new();
    for (n, (ta, tb)) in shapes {
        let s = GemmSpec::new(ta, tb, n, n, n);
        spec.push(BatchEntry::new(s, rng.matrix(n, n), rng.matrix(n, n)));
    }
    let reference = adapter::batch_serial_reference(&spec);
    Workload::Batch(Batch {
        spec,
        nranks: BATCH_RANKS,
        reference,
    })
}

impl Workload {
    /// Generate the inputs from `seed` and compute the reference. Part
    /// of `setup_s`, together with the warm-up ops the caller runs.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "square_large" => gemm(seed, GemmSpec::square(1536), 4, ShmemFlavor::Auto, true),
            "manyrank_copy" => gemm(
                seed,
                GemmSpec::square(768),
                64,
                ShmemFlavor::ForceCopy,
                false,
            ),
            "rect_tn" => gemm(
                seed,
                GemmSpec::new(Op::T, Op::N, 384, 384, 6144),
                16,
                ShmemFlavor::Auto,
                false,
            ),
            "batch_stream" => batch_stream(seed),
            "sim_scale" => Workload::Sim(Sim {
                summa: adapter::measure_modeled(true, DES_RANKS, DES_N),
                first: None,
            }),
            _ => return None,
        })
    }

    /// One op, as the closed-loop client issues it.
    pub fn op(&self) -> Output {
        match self {
            Workload::Gemm(g) => Output::Gemm(adapter::multiply_exec(
                g.nranks, WORKERS, g.flavor, &g.spec, &g.a, &g.b,
            )),
            Workload::Batch(b) => {
                Output::Batch(adapter::multiply_batch_exec(&b.spec, b.nranks, WORKERS))
            }
            Workload::Sim(_) => Output::Sim(SimRuns {
                des: adapter::measure_modeled(false, DES_RANKS, DES_N),
                flat: adapter::flat_virtual(VIRT_RANKS, VIRT_N),
                hier: adapter::hier_virtual(VIRT_RANKS, VIRT_N),
            }),
        }
    }

    /// The same op through the program's traced entry points, with a
    /// harness span around every call into a layer.
    pub fn traced_op(&self, spans: &mut Spans) -> TracedOp {
        match self {
            Workload::Gemm(g) => {
                let (mut run, _) = spans.time("core.multiply_exec_traced", |_| {
                    adapter::multiply_exec_traced(g.nranks, g.flavor, &g.spec, &g.a, &g.b)
                });
                TracedOp {
                    stats: Some(run.stats.clone()),
                    events: std::mem::take(&mut run.trace),
                    out: Output::Gemm(run),
                }
            }
            Workload::Batch(b) => {
                let ((res, stats, events), _) = spans.time("core.multiply_batch_traced", |_| {
                    adapter::multiply_batch_traced(&b.spec, b.nranks)
                });
                TracedOp {
                    out: Output::Batch(res),
                    stats: Some(stats),
                    events,
                }
            }
            Workload::Sim(_) => {
                let des = spans.time("sim.measure_modeled", |_| {
                    adapter::measure_modeled(false, DES_RANKS, DES_N)
                });
                let flat = spans.time("comm.virt_flat", |_| {
                    adapter::flat_virtual(VIRT_RANKS, VIRT_N)
                });
                let hier = spans.time("comm.virt_hier", |_| {
                    adapter::hier_virtual(VIRT_RANKS, VIRT_N)
                });
                TracedOp {
                    out: Output::Sim(SimRuns {
                        des: des.0,
                        flat: flat.0,
                        hier: hier.0,
                    }),
                    stats: None,
                    events: Vec::new(),
                }
            }
        }
    }

    /// Off-the-clock check of one op's output.
    pub fn verify(&mut self, out: &Output) -> bool {
        match (self, out) {
            (Workload::Gemm(g), Output::Gemm(run)) => g.check(&run.c),
            (Workload::Batch(b), Output::Batch(res)) => b.check(&res.outputs),
            (Workload::Sim(s), Output::Sim(runs)) => {
                let got = runs.makespans();
                let first = *s.first.get_or_insert(got);
                got.iter().all(|m| *m > 0.0)
                    && got
                        .iter()
                        .zip(first)
                        .all(|(g, f)| g.to_bits() == f.to_bits())
            }
            _ => false,
        }
    }

    /// Useful flops of one op; `None` where no dense work is done.
    pub fn flops(&self) -> Option<f64> {
        match self {
            Workload::Gemm(g) => Some(g.spec.flops()),
            Workload::Batch(b) => Some(b.spec.flops()),
            Workload::Sim(_) => None,
        }
    }
}

impl Gemm {
    pub fn check(&self, c: &Matrix) -> bool {
        same_shape(c, &self.reference) && adapter::rel_fro_error(c, &self.reference) <= TOLERANCE
    }
}

impl Batch {
    pub fn check(&self, outputs: &[Matrix]) -> bool {
        outputs.len() == self.reference.len()
            && outputs
                .iter()
                .zip(&self.reference)
                .all(|(c, r)| same_shape(c, r) && adapter::rel_fro_error(c, r) <= TOLERANCE)
    }
}

fn same_shape(a: &Matrix, b: &Matrix) -> bool {
    (a.rows(), a.cols()) == (b.rows(), b.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_constant_work() {
        let (Some(Workload::Batch(x)), Some(Workload::Batch(y)), Some(Workload::Batch(z))) = (
            Workload::generate("batch_stream", 7),
            Workload::generate("batch_stream", 7),
            Workload::generate("batch_stream", 8),
        ) else {
            panic!("batch_stream must generate a batch");
        };
        assert_eq!(x.spec.entries.len(), BATCH_ENTRIES);
        for (ex, ey) in x.spec.entries.iter().zip(&y.spec.entries) {
            assert_eq!(ex.spec, ey.spec);
            assert_eq!(ex.a.as_slice(), ey.a.as_slice());
        }
        let order = |b: &Batch| -> Vec<usize> { b.spec.entries.iter().map(|e| e.spec.n).collect() };
        assert_ne!(order(&x), order(&z), "the seed must change the stream");
        assert_eq!(x.spec.flops(), z.spec.flops(), "but not its total work");
    }

    #[test]
    fn a_wrong_output_fails_verification() {
        let Some(mut w) = Workload::generate("batch_stream", 3) else {
            panic!("known workload");
        };
        let out = w.op();
        assert!(w.verify(&out));
        let Output::Batch(mut res) = out else {
            panic!("batch output");
        };
        res.outputs[5].as_mut_slice()[0] += 1e-3;
        assert!(!w.verify(&Output::Batch(res)));
        assert!(Workload::generate("no_such_workload", 1).is_none());
    }

    #[test]
    fn unit_samples_stay_in_range() {
        let mut r = SplitMix::new(1);
        assert!((0..10_000)
            .map(|_| r.unit())
            .all(|x| (-1.0..1.0).contains(&x)));
    }
}
