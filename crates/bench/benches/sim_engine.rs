//! Bench: the discrete-event engine itself — resource scheduling, and
//! a full modeled SRUMMA run per iteration (the cost of regenerating
//! one Figure-10 data point). Plain wall-clock harness
//! (`harness = false`).

use srumma_bench::timing::{bench_case, keep};
use srumma_core::driver::measure_modeled;
use srumma_core::{Algorithm, GemmSpec};
use srumma_model::Machine;
use srumma_sim::resource::Resource;

fn bench_resource() {
    bench_case("sim_engine/resource_acquire_10k", 0, || {
        let mut r = Resource::new();
        let mut t = 0.0;
        for i in 0..10_000 {
            let (_, end) = r.acquire(t, 1e-6);
            if i % 3 == 0 {
                t = end;
            }
        }
        keep(r.busy_until());
    });
}

fn bench_modeled_run() {
    for nranks in [16usize, 64] {
        let machine = Machine::linux_myrinet();
        let spec = GemmSpec::square(4000);
        bench_case(
            &format!("sim_engine/modeled_srumma_run/{nranks}"),
            0,
            || {
                keep(measure_modeled(
                    &machine,
                    nranks,
                    &Algorithm::srumma_default(),
                    &spec,
                ));
            },
        );
    }
}

fn main() {
    bench_resource();
    bench_modeled_run();
}
