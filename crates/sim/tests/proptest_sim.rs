//! Property-style tests on the virtual-time kernel: determinism,
//! monotonicity and conservation over randomized rank programs, and the
//! guarantee that host scheduling cannot move virtual time.
//!
//! Programs are generated from the in-repo deterministic [`Rng`] (the
//! workspace builds offline, without a property-testing framework).
//! They draw every kind of kernel call, so every value-returning path
//! (`now`, `recv_msg`, `pair_sync`, `barrier`) is exercised.

use srumma_dense::Rng;
use srumma_model::network::Path;
use srumma_model::{Topology, TransferCost};
use srumma_sim::kernel::Msg;
use srumma_sim::{run_sim, SimConfig, SimProc, SimResult, TransferSpec};

const CASES: u64 = 24;

/// A compact, Copy description of a randomized rank program step.
#[derive(Clone, Copy, Debug)]
enum Step {
    Compute(u8),
    Get {
        src_off: u8,
        kb: u8,
    },
    Barrier,
    /// Every rank sends an eager message `off` ranks up the ring, then
    /// receives the one from `off` ranks down.
    Ring {
        off: u8,
        kb: u8,
    },
    /// Ranks `2i` and `2i + 1` rendezvous.
    Pair,
    /// Read the clock and let the value steer a compute charge.
    Stamp,
}

fn random_steps(rng: &mut Rng, max_len: usize) -> Vec<Step> {
    let len = rng.range(1, max_len);
    (0..len)
        .map(|_| match rng.below(6) {
            0 => Step::Compute(rng.range(1, 49) as u8),
            1 => Step::Get {
                src_off: rng.range(1, 7) as u8,
                kb: rng.range(1, 63) as u8,
            },
            2 => Step::Barrier,
            3 => Step::Ring {
                off: rng.range(1, 7) as u8,
                kb: rng.range(1, 63) as u8,
            },
            4 => Step::Pair,
            _ => Step::Stamp,
        })
        .collect()
}

/// Cost of moving `bytes` between `a` and `b`: shared memory within a
/// node (`local` path), the network across nodes.
fn move_cost(p: &SimProc, a: usize, b: usize, bytes: u64, local: Path) -> TransferCost {
    if p.topology().same_domain(a, b) {
        TransferCost {
            latency: 1e-6,
            membw: bytes as f64 / 1e9,
            path: local,
            async_fraction: 0.0,
            ..Default::default()
        }
    } else {
        TransferCost {
            latency: 5e-6,
            wire: bytes as f64 / 2.5e8,
            path: Path::Network,
            async_fraction: 1.0,
            ..Default::default()
        }
    }
}

/// Run `steps` on every rank. With `jitter`, each rank perturbs its host
/// timing between operations (spins, yields and short sleeps drawn from
/// a per-rank seed), which must not change any virtual-time result.
fn simulate(
    nranks: usize,
    per_node: usize,
    steps: &[Step],
    trace: bool,
    jitter: Option<u64>,
) -> SimResult<f64> {
    let cfg = SimConfig {
        trace,
        ..SimConfig::new(Topology::new(nranks, per_node))
    };
    run_sim(cfg, |p| {
        let me = p.rank();
        let n = p.nranks();
        let mut host = jitter.map(|seed| Rng::new(seed ^ ((me as u64) << 32)));
        for (i, s) in steps.iter().enumerate() {
            if let Some(rng) = host.as_mut() {
                match rng.below(4) {
                    0 => std::thread::yield_now(),
                    1 => (0..rng.below(20_000)).for_each(|_| std::hint::spin_loop()),
                    2 => {
                        std::thread::sleep(std::time::Duration::from_micros(rng.below(200) as u64))
                    }
                    _ => {}
                }
            }
            match *s {
                Step::Compute(units) => {
                    // Vary per rank so ranks are not in lockstep.
                    let dt = units as f64 * 1e-5 * (1.0 + (me + i) as f64 * 0.01);
                    p.charge_compute(dt, "w");
                }
                Step::Get { src_off, kb } => {
                    let src = (me + src_off as usize) % n;
                    if src == me {
                        continue;
                    }
                    let bytes = kb as u64 * 1024;
                    let t = p.issue_transfer(TransferSpec {
                        cost: move_cost(p, src, me, bytes, Path::SharedMemory),
                        src_rank: src,
                        dst_rank: me,
                        bytes,
                        label: String::new(),
                    });
                    p.wait_transfer(t);
                }
                Step::Barrier => p.barrier(),
                Step::Ring { off, kb } => {
                    let off = off as usize % n;
                    if off == 0 {
                        continue;
                    }
                    let (dst, src) = ((me + off) % n, (me + n - off) % n);
                    let bytes = kb as u64 * 1024;
                    let t = p.issue_transfer(TransferSpec {
                        cost: move_cost(p, me, dst, bytes, Path::ShmChannel),
                        src_rank: me,
                        dst_rank: dst,
                        bytes,
                        label: String::new(),
                    });
                    let msg = Msg {
                        avail_at: 0.0,
                        payload: vec![me as f64],
                        bytes,
                    };
                    // Eager: available when the transfer lands.
                    p.post_msg_after(t, dst, i as u64, msg);
                    let got = p.recv_msg(src, i as u64);
                    assert_eq!(got.payload, vec![src as f64], "step {i}: wrong message");
                }
                Step::Pair => {
                    let peer = me ^ 1;
                    if peer < n {
                        let t = p.pair_sync(((i as u64) << 32) | (me & !1) as u64);
                        assert_eq!(t, p.now(), "step {i}: pairing time is the clock");
                    }
                }
                Step::Stamp => {
                    let t = p.now();
                    p.charge_compute((t.to_bits() % 7) as f64 * 1e-6, "stamp");
                }
            }
        }
        p.now()
    })
}

fn run_program(nranks: usize, per_node: usize, steps: &[Step]) -> (Vec<f64>, f64, u64) {
    let res = simulate(nranks, per_node, steps, false, None);
    let bytes = res.stats.total_network_bytes() + res.stats.total_shm_bytes();
    (res.stats.final_times.clone(), res.stats.makespan, bytes)
}

/// The `CASES` programs of [`simulation_is_deterministic`].
fn deterministic_case(case: u64) -> (Vec<Step>, usize, usize) {
    let mut rng = Rng::new(0xDE7E_0001 + case);
    let steps = random_steps(&mut rng, 19);
    let nranks = rng.range(2, 9);
    let per_node = rng.range(1, 3);
    (steps, nranks, per_node)
}

/// Identical programs produce bit-identical timings.
#[test]
fn simulation_is_deterministic() {
    for case in 0..CASES {
        let (steps, nranks, per_node) = deterministic_case(case);
        let a = run_program(nranks, per_node, &steps);
        let b = run_program(nranks, per_node, &steps);
        assert_eq!(a.0, b.0, "case {case} (x{nranks}, {per_node}/node)");
        assert_eq!(a.1, b.1, "case {case}");
        assert_eq!(a.2, b.2, "case {case}");
    }
}

/// Final rank clocks (`f64::to_bits`) of the [`deterministic_case`]
/// programs, as computed by a kernel that ran one rank thread at a time
/// and so took every operation in `(clock, rank)` order. A change in
/// that order fails here even when it is deterministic.
const PINNED_FINAL_CLOCKS: [&[u64]; CASES as usize] = [
    &[
        0x3f4cd6830c97f181,
        0x3f46a26171e8833f,
        0x3f4cd6830c97f181,
        0x3f482d50f9a04812,
        0x3f4c6975c30352f9,
        0x3f482d50f9a04812,
        0x3f4c6975c30352f9,
    ],
    &[
        0x3f65a78b638fb630,
        0x3f65a78b638fb630,
        0x3f65a78b638fb630,
        0x3f65a78b638fb630,
        0x3f65b207be5427e5,
        0x3f65b207be5427e5,
        0x3f68e465ce43a2f6,
        0x3f68e465ce43a2f6,
        0x3f6485935257bba9,
    ],
    &[
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
        0x3f3e905b4ed29861,
    ],
    &[0x3f62dfaba1aee6dd, 0x3f62ea27fc735892],
    &[
        0x3f547738fa252836,
        0x3f525edadf67b7a8,
        0x3f546240449c44ce,
        0x3f540c5a0913829d,
    ],
    &[0x0000000000000000, 0x0000000000000000],
    &[
        0x3f444177e6e3c6b2,
        0x3f444177e6e3c6b2,
        0x3f444177e6e3c6b2,
        0x3f444177e6e3c6b2,
    ],
    &[
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
        0x3f56102ace127ab4,
    ],
    &[
        0x3f45cdf291ad6702,
        0x3f411b5b5032c855,
        0x3f4a8089d32805af,
        0x3f41729924a9ad8f,
        0x3f46253066244c3c,
        0x3f4ad7c7a79eeae9,
        0x3f41b68bc2c15b2a,
        0x3f466923043bf9d7,
        0x3f4b1bba45b69884,
    ],
    &[
        0x3f5782d38476f2a6,
        0x3f591f24a23a96c4,
        0x3f5abb75bffe3ae2,
        0x3f5abb75bffe3ae2,
        0x3f5782d38476f2a6,
        0x3f591f24a23a96c4,
        0x3f5abb75bffe3ae2,
    ],
    &[
        0x3f5076c1639e4639,
        0x3f544a020a4eec00,
        0x3f5076c1639e4639,
        0x3f544a020a4eec00,
        0x3f5076c1639e4639,
        0x3f544a020a4eec00,
    ],
    &[
        0x3f548e5325a81670,
        0x3f548e5325a81670,
        0x3f5805df81ca08e7,
        0x3f5805df81ca08e7,
        0x3f58d40810abdaf5,
        0x3f58d40810abdaf5,
    ],
    &[
        0x3f39d43c82bd3428,
        0x3f422625e21a6f75,
        0x3f39d43c82bd3428,
        0x3f422625e21a6f75,
        0x3f39d43c82bd3428,
        0x3f422625e21a6f75,
        0x3f40ac30dc271905,
        0x3f45e8387ce2ee66,
        0x3f422625e21a6f75,
    ],
    &[
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
        0x3f5f5af9a0c0546f,
    ],
    &[
        0x3f4eba88db0e0bbc,
        0x3f4eef6200aeaf35,
        0x3f4f1bd7aa7ef7b7,
        0x3f4f484d544f4039,
        0x3f4f3a0a9b6d0bfb,
        0x3f4f77473cde0a6c,
        0x3f4f9b596addf7f6,
        0x3f4fd032907e9b70,
    ],
    &[
        0x3f435162eb7f0bf2,
        0x3f435162eb7f0bf2,
        0x3f43a03d44259635,
        0x3f43a03d44259635,
        0x3f43ef179ccc2078,
        0x3f43ef179ccc2078,
        0x3f443df1f572aaba,
        0x3f443df1f572aaba,
    ],
    &[0x3f333e317a31b08d, 0x3f23097219a2e94e, 0x3f333e317a31b08d],
    &[
        0x3f60f941cad09e3e,
        0x3f60fda9389e0133,
        0x3f60f32cddd98f7f,
        0x3f60ec0b81687560,
        0x3f60f072ef35d854,
        0x3f60f4da5d033b49,
    ],
    &[
        0x3f20c2f0d5eb8473,
        0x3f20c2f0d5eb8473,
        0x3f20c2f0d5eb8473,
        0x3f20c2f0d5eb8473,
    ],
    &[
        0x3f307e38a64ae919,
        0x3f2d1c0964c76eae,
        0x3f307e38a64ae919,
        0x3f2d1c0964c76eae,
        0x3f307e38a64ae919,
    ],
    &[
        0x3f44f24cdb724e75,
        0x3f44f24cdb724e75,
        0x3f453568b9f5262b,
        0x3f453568b9f5262b,
        0x3f4552c4eb4e648a,
        0x3f4552c4eb4e648a,
        0x3f44af30fcef76be,
    ],
    &[0x3f46c899616575a6, 0x3f46cf4f5e0c24d2],
    &[
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
        0x3f5c57e0a2d3bb3b,
    ],
    &[
        0x3f6126b0904d8cf2,
        0x3f6127519ffd2d5e,
        0x3f6127f2afaccdca,
        0x3f612893bf5c6e36,
        0x3f612934cf0c0ea2,
        0x3f6129d5debbaf0e,
        0x3f612a76ee6b4f7a,
    ],
];

#[test]
fn final_clocks_match_the_pinned_order() {
    for (case, want) in PINNED_FINAL_CLOCKS.iter().enumerate() {
        let (steps, nranks, per_node) = deterministic_case(case as u64);
        let (times, _, _) = run_program(nranks, per_node, &steps);
        let got: Vec<u64> = times.iter().map(|t| t.to_bits()).collect();
        assert_eq!(&got[..], *want, "case {case} (x{nranks}, {per_node}/node)");
    }
}

/// Host timing cannot move virtual time: ranks that spin, yield and
/// sleep at random between operations get bit-identical clocks, rank
/// statistics and traces.
#[test]
fn host_jitter_does_not_move_virtual_time() {
    for case in 0..CASES {
        let (steps, nranks, per_node) = deterministic_case(case);
        let calm = simulate(nranks, per_node, &steps, true, None);
        let jittered = simulate(nranks, per_node, &steps, true, Some(0x7177_E500 + case));
        let bits = |r: &SimResult<f64>| -> Vec<u64> {
            r.stats.final_times.iter().map(|t| t.to_bits()).collect()
        };
        assert_eq!(bits(&calm), bits(&jittered), "case {case}: final clocks");
        assert_eq!(
            calm.stats.ranks, jittered.stats.ranks,
            "case {case}: rank stats"
        );
        assert_eq!(calm.trace, jittered.trace, "case {case}: trace");
    }
}

/// Clocks never go backwards and the makespan bounds every rank.
#[test]
fn makespan_bounds_all_ranks() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xB0BD_0002 + case);
        let steps = random_steps(&mut rng, 19);
        let nranks = rng.range(2, 9);
        let (times, makespan, _) = run_program(nranks, 2, &steps);
        for t in &times {
            assert!(*t >= 0.0, "case {case}: negative clock {t}");
            assert!(*t <= makespan + 1e-15, "case {case}: {t} > {makespan}");
        }
    }
}

/// Adding extra compute to every rank never shortens the makespan
/// (a basic monotonicity sanity for the conservative scheduler).
#[test]
fn extra_work_never_helps() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3072_0003 + case);
        let steps = random_steps(&mut rng, 14);
        let nranks = rng.range(2, 7);
        let (_, base, _) = run_program(nranks, 2, &steps);
        let mut more = steps.clone();
        more.push(Step::Compute(10));
        let (_, bigger, _) = run_program(nranks, 2, &more);
        assert!(bigger >= base - 1e-15, "case {case}: {bigger} < {base}");
    }
}
