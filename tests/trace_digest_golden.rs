//! Absolute trace-digest pins: small runs whose `emx-trace` stream digests
//! are committed literals. Between them the runs emit every `TraceKind`
//! variant — spawn/suspend/resume/retire, the DMA path, spilled enqueues
//! and unspills (histogram), and all three injected faults.
//!
//! The replay and checkpoint tests compare two runs of the same code, so a
//! change to the trace-line renderer or to the event loop that moves both
//! sides slips past them. These pins do not: any byte of any line that
//! changes, changes a digest here. The P=64 rows also pin each run's
//! report digest, and two rows pin a deadlock and a fault-matrix point.

use emx::prelude::*;
use emx::stats::report_digest;

fn cfg(pes: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(pes);
    c.local_memory_words = 1 << 18;
    c
}

/// The 64-PE machine of the P=64 rows: six Omega stages of cross-PE
/// traffic.
fn p64() -> MachineConfig {
    let mut c = MachineConfig::with_pes(64);
    c.local_memory_words = 1 << 17;
    c
}

/// Digest and event count of one observed run.
fn digest_of(run: impl FnOnce(DigestProbe)) -> (String, u64) {
    let (probe, handle) = DigestProbe::new();
    run(probe);
    (handle.hex(), handle.events())
}

#[test]
fn fft_trace_digest_is_pinned() {
    // The configuration of `emx-cli run fft --pes 16 --n 1024 --threads 4`.
    let got = digest_of(|p| {
        run_fft_observed(&cfg(16), &FftParams::new(1024, 4), |m| {
            m.attach_probe(Box::new(p))
        })
        .unwrap();
    });
    assert_eq!(
        got,
        ("039d58ee45b2aed589a267ce0f9b2cdc".to_string(), 112_411)
    );
}

#[test]
fn bitonic_trace_digest_is_pinned() {
    let got = digest_of(|p| {
        run_bitonic_observed(&cfg(8), &SortParams::new(512, 2), |m| {
            m.attach_probe(Box::new(p))
        })
        .unwrap();
    });
    assert_eq!(
        got,
        ("21990977060492bcbb22c0e4fe064727".to_string(), 31_494)
    );
}

#[test]
fn histogram_spill_trace_digest_is_pinned() {
    // 967 of the 1040 enqueues spill, each restored by an unspill.
    let got = digest_of(|p| {
        run_histogram_observed(&cfg(8), &HistogramParams::new(1024, 2), |m| {
            m.attach_probe(Box::new(p))
        })
        .unwrap();
    });
    assert_eq!(got, ("873030c32534138b08480fc1d5c275d1".to_string(), 9_239));
}

#[test]
fn faulted_fft_trace_digest_is_pinned() {
    // Drops (recovered by the read-retry protocol), duplicates and delays.
    let mut c = cfg(8);
    let mut faults = FaultSpec::with_loss(7, 20_000);
    faults.dup_ppm = 20_000;
    faults.delay_ppm = 50_000;
    faults.max_delay = 16;
    faults.retry_timeout = 2000;
    c.faults = Some(faults);
    let got = digest_of(|p| {
        run_fft_observed(&c, &FftParams::new(256, 2), |m| m.attach_probe(Box::new(p))).unwrap();
    });
    assert_eq!(
        got,
        ("24f8d7dcc1a8f6533b2b02ead76f4f34".to_string(), 29_789)
    );
}

/// Report digest, trace digest and trace-event count of one P=64 run.
fn fingerprint_of(
    run: impl FnOnce(DigestProbe) -> Result<RunReport, SimError>,
) -> (String, String, u64) {
    let (probe, handle) = DigestProbe::new();
    let report = run(probe).unwrap();
    (report_digest(&report), handle.hex(), handle.events())
}

fn pinned(report: &str, trace: &str, events: u64) -> (String, String, u64) {
    (report.to_string(), trace.to_string(), events)
}

#[test]
fn fft_p64_fingerprint_is_pinned() {
    let got = fingerprint_of(|p| {
        run_fft_observed(&p64(), &FftParams::comm_only(64 * 64, 4), |m| {
            m.attach_probe(Box::new(p))
        })
        .map(|o| o.report)
    });
    assert_eq!(
        got,
        pinned(
            "875b0e27394748a465df42a8660ac765",
            "d659246984b9285bfd2a1c42ac84a6e5",
            722_606
        )
    );
}

#[test]
fn bitonic_p64_fingerprint_is_pinned() {
    let got = fingerprint_of(|p| {
        run_bitonic_observed(&p64(), &SortParams::new(64 * 64, 4), |m| {
            m.attach_probe(Box::new(p))
        })
        .map(|o| o.report)
    });
    assert_eq!(
        got,
        pinned(
            "7163ef3be0b8243c11018940f0121d7e",
            "b6ac1096bb7fb145bb1d3dc05d7c184d",
            951_473
        )
    );
}

#[test]
fn bfs_p64_fingerprint_is_pinned() {
    // Per-edge fine-grain remote reads plus three barrier epochs per
    // frontier level.
    let got = fingerprint_of(|p| {
        run_bfs_observed(&p64(), &BfsParams::new(64 * 32, 4), |m| {
            m.attach_probe(Box::new(p))
        })
        .map(|o| o.report)
    });
    assert_eq!(
        got,
        pinned(
            "f6770ef4a04761c70b7756266c403efa",
            "5f66d7f5e09d5c898058fb36bf385560",
            769_216
        )
    );
}

/// A thread that performs its scripted actions then runs off the end.
struct Scripted {
    actions: Vec<Action>,
    at: usize,
}

impl ThreadBody for Scripted {
    fn step(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        let a = self.actions.get(self.at).copied().unwrap_or(Action::End);
        self.at += 1;
        a
    }
}

#[test]
fn stuck_exchange_deadlock_is_pinned() {
    // PEs 0 and 63 read each other's word, then wait on a sequence signal
    // that never arrives: quiescence with both threads suspended.
    let mut m = Machine::new(p64()).unwrap();
    m.define_seq_cells(1);
    m.mem_mut(PeId(0)).unwrap().write(0, 7).unwrap();
    m.mem_mut(PeId(63)).unwrap().write(0, 9).unwrap();
    let entry = m.register_entry("stuck-exchange", |pe, _| {
        let partner = if pe.0 == 0 { 63 } else { 0 };
        Box::new(Scripted {
            actions: vec![
                Action::Read {
                    addr: GlobalAddr::new(PeId(partner), 0).unwrap(),
                },
                Action::WaitSeq {
                    cell: 0,
                    threshold: 99,
                },
            ],
            at: 0,
        })
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    m.spawn_at_start(PeId(63), entry, 0).unwrap();
    assert!(matches!(
        m.run(),
        Err(SimError::Deadlock {
            at: 25,
            suspended: 2
        })
    ));
}

#[test]
fn fault_matrix_loss0_point_is_pinned() {
    // Bitonic sort with the fault machinery and the invariant checker
    // armed at zero packet loss.
    let mut spec = RunSpec::new(emx::sweep::Workload::Sort, 16, 256, 4);
    let mut fs = FaultSpec::with_loss(0x10ad, 0);
    fs.retry_timeout = 128;
    fs.retry_backoff_cap = 4096;
    fs.check_invariants = true;
    spec.faults = Some(fs);
    let report = spec.execute().expect("loss-0 fault point completes");
    assert_eq!(report.elapsed.get(), 100_340);
    assert_eq!(report_digest(&report), "12474c0f42d7a07bdddc3173cbfdb6e8");
}
