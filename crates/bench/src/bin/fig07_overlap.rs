//! **Figure 7** — Potential degree of communication/computation overlap
//! on the IBM SP and the Linux cluster, ARMCI nonblocking get vs MPI
//! nonblocking send/recv, as a function of message size.
//!
//! The paper's findings this must reproduce: ARMCI reaches ≈99 % for
//! medium and large messages; MPI's overlap *collapses* past the 16 KiB
//! eager threshold when the rendezvous protocol kicks in.
//!
//! The "measured" column is computed **from the recorded trace
//! events** of a COMB-style probe run (not from ad-hoc clock reads):
//! the calibration get's Transfer span gives `T_comm`, and whatever
//! Wait spans follow the probe's nonblocking get give the exposed
//! (non-overlapped) communication time.

use srumma_bench::{print_table, write_bench_json, write_csv};
use srumma_comm::{sim_run, Comm, DistMatrix, Landing, SimOptions};
use srumma_model::machine::RanksPerDomain;
use srumma_model::overlap::overlap_curve;
use srumma_model::{Machine, ProcGrid};
use srumma_trace::{bench_report_json, chrome_trace_json, TraceKind};

/// One traced COMB probe [Lawry et al., ref 38]: rank 0 issues a
/// nonblocking get of `bytes` from another node, computes for exactly
/// the transfer's blocking duration, then waits.
struct Probe {
    /// overlap = 1 − T_exposed / T_comm, both read off the trace.
    overlap: f64,
    /// Chrome-trace JSON of the probe's event timeline.
    trace_json: String,
    /// `RunStats` summary of the probe run.
    summary_json: String,
}

fn measured_overlap(machine: &Machine, bytes: usize) -> Probe {
    // Two full nodes, so the peer is definitely across the network.
    let width = match machine.ranks_per_domain {
        RanksPerDomain::Fixed(w) => w,
        RanksPerDomain::WholeMachine => 1,
    };
    let nranks = 2 * width;
    let peer = width; // first rank of the second node
    let rows = (bytes / 8).max(1);
    let mat = DistMatrix::create_virtual(ProcGrid::new(1, nranks), rows, nranks);
    let opts = SimOptions::traced(machine.clone(), nranks);
    let res = sim_run(&opts, |c| {
        if c.rank() != 0 {
            return;
        }
        // Calibrate T_comm with a blocking get, then probe: a
        // nonblocking get overlapped with an equal amount of compute.
        let t0 = c.now();
        let mut buf = Vec::new();
        c.get(&mat, peer, &mut buf);
        let t_comm = c.now() - t0;
        let h = c.nbget(&mat, peer, Landing::Rows(&mut buf));
        c.proc().charge_compute(t_comm, "probe work");
        c.wait(h);
    });

    // Read the answer off the recorded events with the COMB formula
    // `overlap = 1 − (T_total − T_compute) / T_comm`. Rank 0's first
    // Transfer span is the calibration get (its duration is the
    // blocking T_comm); the probe phase starts at the last Transfer
    // span's issue. T_total (issue → everything done) then covers both
    // overheads compute cannot hide: the initiator's issue busy time
    // (the gap before the Compute span starts) and any trailing Wait.
    let r0 = || res.trace.iter().filter(|e| e.rank == 0);
    let t_comm = r0()
        .find(|e| e.kind == TraceKind::Transfer)
        .map(|e| e.duration())
        .unwrap_or(0.0);
    let probe_t0 = r0()
        .rfind(|e| e.kind == TraceKind::Transfer)
        .map(|e| e.t0)
        .unwrap_or(0.0);
    let t_end = r0()
        .filter(|e| e.kind != TraceKind::Transfer && e.t0 >= probe_t0)
        .map(|e| e.t1)
        .fold(probe_t0, f64::max);
    let t_compute: f64 = r0()
        .filter(|e| e.kind == TraceKind::Compute && e.t0 >= probe_t0)
        .map(|e| e.duration())
        .sum();
    let overlap = if t_comm > 0.0 {
        (1.0 - ((t_end - probe_t0) - t_compute) / t_comm).clamp(0.0, 1.0)
    } else {
        0.0
    };
    Probe {
        overlap,
        trace_json: chrome_trace_json(&res.trace),
        summary_json: res.stats.summary_json(),
    }
}

fn main() {
    for machine in [Machine::ibm_sp(), Machine::linux_myrinet()] {
        let curve = overlap_curve(&machine);
        let headers = [
            "bytes",
            "ARMCI overlap %",
            "ARMCI measured %",
            "MPI overlap %",
        ];
        let mut last_probe = None;
        let rows: Vec<Vec<String>> = curve
            .iter()
            .map(|p| {
                let probe = measured_overlap(&machine, p.bytes);
                let row = vec![
                    p.bytes.to_string(),
                    format!("{:.1}", p.armci * 100.0),
                    format!("{:.1}", probe.overlap * 100.0),
                    format!("{:.1}", p.mpi * 100.0),
                ];
                last_probe = Some(probe);
                row
            })
            .collect();
        let title = format!(
            "Figure 7: potential overlap vs message size — {}",
            machine.platform.name()
        );
        print_table(&title, &headers, &rows);
        let stem = format!("fig07_overlap_{:?}", machine.platform).to_lowercase();
        write_csv(&stem, &headers, &rows);
        if let Some(probe) = &last_probe {
            // Unified report for the largest-message probe: metrics
            // summary plus the raw event timeline it was derived from.
            write_bench_json(
                &stem,
                &bench_report_json(&stem, "sim", &probe.trace_json, &probe.summary_json),
            );
        }

        let large = curve.last().unwrap();
        let at = |bytes: usize| curve.iter().find(|p| p.bytes == bytes).map(|p| p.mpi);
        let before = at(16 * 1024).unwrap_or(0.0);
        let after = at(128 * 1024).unwrap_or(0.0);
        println!(
            "\n  ARMCI overlap at 1 MiB: {:.1}% (paper ≈ 99%)",
            large.armci * 100.0
        );
        println!(
            "  MPI overlap 16 KiB → 128 KiB: {:.0}% → {:.0}% (paper: sharp decrease past the 16 KiB eager limit)",
            before * 100.0,
            after * 100.0
        );
    }
}
