//! The four benchmark workloads, their machine configurations, and one
//! untraced repetition of each.
//!
//! Every workload runs the paper baseline: circular Omega network, by-pass
//! DMA, `Paper` cost preset, no faults. Only public `emx` entry points are
//! called, and no execution-driver knob is touched, so refactors of the
//! runtime underneath cannot break the benchmark.

use std::path::Path;
use std::time::Instant;

use emx::prelude::*;
use emx::stats::report_digest;

use crate::sweepmix;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bitonic sort, P=64, 2048 keys/PE, h=4, no probe.
    Bitonic,
    /// Histogram scatter, P=64, 16384 keys/PE, h=4, no probe.
    Histogram,
    /// Full FFT, P=64, n=32768, h=4, with a `DigestProbe` attached.
    Fft,
    /// The `figures workloads` grid at quick and standard sizes, P=16,
    /// cold then warm through the sweep engine.
    SweepMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Bitonic,
        Workload::Histogram,
        Workload::Fft,
        Workload::SweepMix,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bitonic => "bitonic-p64",
            Workload::Histogram => "histogram-p64",
            Workload::Fft => "fft-p64-digest",
            Workload::SweepMix => "sweep-mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem scale: the benchmark's own sizes, or the seconds-long sizes of
/// the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small sizes with the same code paths, for the self-test.
    Tiny,
}

impl Size {
    /// The word used in `pins.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Processor count of the three single-run workloads.
    pub fn pes(self) -> usize {
        match self {
            Size::Full => 64,
            Size::Tiny => 16,
        }
    }
}

/// Worker threads per processor in the three single-run workloads.
pub const THREADS: usize = 4;

/// The machine of the three single-run workloads: the same configuration
/// `emx-cli run` builds, so report digests are comparable with it.
pub fn machine_config(size: Size) -> MachineConfig {
    let mut cfg = MachineConfig::with_pes(size.pes());
    cfg.local_memory_words = 1 << 18;
    cfg
}

/// Bitonic parameters: 2048 keys/PE (the middle standard size).
pub fn sort_params(size: Size, seed: Option<u64>) -> SortParams {
    let per_pe = match size {
        Size::Full => 2048,
        Size::Tiny => 256,
    };
    let mut p = SortParams::new(per_pe * size.pes(), THREADS);
    if let Some(s) = seed {
        p.seed = s;
    }
    p
}

/// Histogram parameters: 16384 keys/PE.
pub fn histogram_params(size: Size, seed: Option<u64>) -> HistogramParams {
    let per_pe = match size {
        Size::Full => 16384,
        Size::Tiny => 1024,
    };
    let mut p = HistogramParams::new(per_pe * size.pes(), THREADS);
    if let Some(s) = seed {
        p.seed = s;
    }
    p
}

/// FFT parameters: the full transform (local phase on), 512 points/PE.
pub fn fft_params(size: Size, seed: Option<u64>) -> FftParams {
    let per_pe = match size {
        Size::Full => 512,
        Size::Tiny => 256,
    };
    let mut p = FftParams::new(per_pe * size.pes(), THREADS);
    if let Some(s) = seed {
        p.seed = s;
    }
    p
}

/// What one execution of a workload produced, untraced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds for the whole execution.
    pub wall_s: f64,
    /// Host seconds before simulation could start.
    pub setup_s: f64,
    /// Simulated cycles: the sum of `RunReport::elapsed`.
    pub sim_cycles: u64,
    /// Operations attempted: 1 for a single run, the point count for a
    /// sweep.
    pub attempted: u64,
    /// Operations that failed on their own terms: a verification error,
    /// or a sweep point the engine gave up on.
    pub failed: u64,
    /// Digests to compare against the pins or against the first
    /// repetition, by name (`report`, `trace`, `points`, `failures`).
    pub digests: Vec<(&'static str, String)>,
}

/// Run one untraced, timed execution of `w`.
pub fn run_once(w: Workload, size: Size, seed: Option<u64>, workdir: &Path) -> Rep {
    match w {
        Workload::Bitonic => {
            let cfg = machine_config(size);
            let params = sort_params(size, seed);
            let t0 = Instant::now();
            let mut setup = 0.0;
            let out = run_bitonic_observed(&cfg, &params, |_| setup = t0.elapsed().as_secs_f64());
            single_rep(t0, setup, out.map(|o| o.report), None)
        }
        Workload::Histogram => {
            let cfg = machine_config(size);
            let params = histogram_params(size, seed);
            let t0 = Instant::now();
            let mut setup = 0.0;
            let out = run_histogram_observed(&cfg, &params, |_| setup = t0.elapsed().as_secs_f64());
            single_rep(t0, setup, out.map(|o| o.report), None)
        }
        Workload::Fft => {
            let cfg = machine_config(size);
            let params = fft_params(size, seed);
            let t0 = Instant::now();
            let (probe, handle) = DigestProbe::new();
            let built = build_fft(&cfg, &params, |m| m.attach_probe(Box::new(probe)));
            let setup = t0.elapsed().as_secs_f64();
            let out = built.and_then(|mut m| {
                let report = m.run()?;
                finish_fft(&m, &params, report).map(|o| o.report)
            });
            single_rep(t0, setup, out, Some(handle))
        }
        Workload::SweepMix => sweepmix::run_once(size, seed, workdir),
    }
}

fn single_rep(
    t0: Instant,
    setup_s: f64,
    out: Result<RunReport, SimError>,
    trace: Option<DigestHandle>,
) -> Rep {
    let mut digests = Vec::new();
    let (sim_cycles, failed) = match &out {
        Ok(report) => {
            digests.push(("report", report_digest(report)));
            if let Some(h) = &trace {
                digests.push(("trace", h.hex()));
            }
            (report.elapsed.get(), 0)
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            (0, 1)
        }
    };
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        setup_s,
        sim_cycles,
        attempted: 1,
        failed,
        digests,
    }
}
