//! Checkpoint/restore on real workloads: a small FFT and BFS run,
//! snapshotted at every k-th event boundary (k ∈ {1, 7, 64}) and restored
//! into fresh shells, must finish with the exact report and verified
//! output of the uninterrupted run.

use emx::prelude::*;
use emx::stats::digest::report_canonical_text;

const STRIDES: [u64; 3] = [1, 7, 64];

fn cfg(p: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(p);
    c.local_memory_words = 1 << 14;
    c
}

/// Drive `machine` in `stride`-event steps; at each pause snapshot it,
/// restore into a fresh shell built by `build`, run it to completion, and
/// check the resumed fingerprint against the uninterrupted reference.
/// Returns how many checkpoints were exercised.
fn walk_checkpoints(
    mut machine: Machine,
    build: impl Fn() -> Machine,
    stride: u64,
    ref_report: &RunReport,
) -> usize {
    let fuel = Cycle::new(DEFAULT_FUEL);
    let ref_text = report_canonical_text(ref_report);
    let mut checkpoints = 0;
    loop {
        match machine.step_events(stride, fuel) {
            Ok(None) => {}
            Ok(Some(report)) => {
                assert_eq!(
                    report_canonical_text(&report),
                    ref_text,
                    "stepped run diverged (stride {stride})"
                );
                return checkpoints;
            }
            Err(e) => panic!("step_events failed at stride {stride}: {e}"),
        }
        let snap = machine.snapshot().unwrap();
        checkpoints += 1;
        let mut resumed = build();
        resumed.restore(&snap).unwrap();
        let report = resumed.run().unwrap();
        assert_eq!(
            report_canonical_text(&report),
            ref_text,
            "resume diverged (stride {stride}, checkpoint {checkpoints})"
        );
    }
}

#[test]
fn fft_checkpoints_are_transparent_at_any_stride() {
    let params = FftParams::comm_only(32, 2);
    let build = || build_fft(&cfg(4), &params, |_| {}).unwrap();

    let mut reference = build();
    let ref_report = reference.run().unwrap();
    // The uninterrupted run itself verifies against the host oracle.
    finish_fft(&reference, &params, ref_report.clone()).unwrap();

    for stride in STRIDES {
        let n = walk_checkpoints(build(), build, stride, &ref_report);
        assert!(n > 0, "stride {stride} never paused mid-run");
    }
}

#[test]
fn bfs_checkpoints_are_transparent_at_any_stride() {
    let params = BfsParams::new(32, 2);
    let build = || build_bfs(&cfg(4), &params, |_| {}).unwrap();

    let mut reference = build();
    let ref_report = reference.run().unwrap();
    finish_bfs(&reference, &params, ref_report.clone()).unwrap();

    for stride in STRIDES {
        let n = walk_checkpoints(build(), build, stride, &ref_report);
        assert!(n > 0, "stride {stride} never paused mid-run");
    }
}

#[test]
fn resumed_workload_output_passes_the_sequential_oracle() {
    // Restore mid-run, finish in a fresh shell, and put the gathered
    // output through the workload's own verification.
    let params = BfsParams::new(64, 2);
    let build = || build_bfs(&cfg(4), &params, |_| {}).unwrap();

    let mut paused = build();
    assert!(paused
        .step_events(40, Cycle::new(DEFAULT_FUEL))
        .unwrap()
        .is_none());
    let snap = paused.snapshot().unwrap();

    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    let report = resumed.run().unwrap();
    let out = finish_bfs(&resumed, &params, report).unwrap();
    assert_eq!(out.dist[0], 0);
}
