//! Absolute trace-digest pins: small runs whose `emx-trace` stream digests
//! are committed literals. Between them the runs emit every `TraceKind`
//! variant — spawn/suspend/resume/retire, the DMA path, spilled enqueues
//! and unspills (histogram), and all three injected faults.
//!
//! The shard and checkpoint tests compare two runs of the same code, so a
//! change to the trace-line renderer that moves both sides slips past
//! them. These pins do not: any byte of any line that changes, changes a
//! digest here.

use emx::prelude::*;

fn cfg(pes: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(pes);
    c.local_memory_words = 1 << 18;
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
