//! Running a one-step program per rank.

use srumma_sim::{PolledSim, SimConfig, SimProc, SimResult};

/// Run `body` once per rank, on this thread, as a program of one step;
/// each rank's output is its final clock.
pub fn clocks(cfg: SimConfig, body: impl Fn(&SimProc)) -> SimResult<f64> {
    let sim = PolledSim::new(cfg);
    while let Some(rank) = sim.next_rank() {
        body(&sim.proc(rank));
        sim.finish(rank);
    }
    let res = sim.into_result(Vec::new());
    SimResult {
        outputs: res.stats.final_times.clone(),
        ..res
    }
}
