//! The traced run: one execution of a workload with the `emx::hostprof`
//! gate on, the counting allocator installed and the bench probe
//! attached, followed by replays of the probe's records through single
//! layers. Every metric is taken from outside the simulator: counters are
//! looked up by name, layers are timed around their public functions.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use emx::hostprof::{self, CountingAlloc, Snapshot, HOST_NAMES, SIM_NAMES, WALL_NAMES};
use emx::prelude::*;
use emx::stats::report_digest;
use emx::sweep::{journal, CacheKey, Workload as Kernel};

use crate::json::Obj;
use crate::probe::{self, BenchProbe, Records};
use crate::workload::{self, Rep, Workload};
use crate::{check, emit, ratio, record_head, sweepmix, Args};

/// Look a hostprof counter up by its published name.
fn counter(s: &Snapshot, name: &str) -> Option<u64> {
    let find =
        |names: &[&str], vals: &[u64]| names.iter().position(|n| *n == name).map(|i| vals[i]);
    find(&SIM_NAMES, &s.sim)
        .or_else(|| find(&HOST_NAMES, &s.host))
        .or_else(|| find(&WALL_NAMES, &s.wall))
}

/// Layer figures gathered from one or more probed runs.
#[derive(Debug, Default)]
struct Layers {
    trace_events: u64,
    spawns: u64,
    runtime_allocs: (u64, u64),
    digested: u64,
    digest_ns: u64,
    digest_allocs: u64,
    routes: u64,
    route_ns: u64,
    queue_ops: u64,
    queue_ns: u64,
    verify_s: f64,
    digest_us: Vec<f64>,
    /// Names of the replay checks that failed.
    failed_checks: Vec<String>,
}

impl Layers {
    /// Fold one probed run in: replay its records and time its report
    /// digest.
    fn add(&mut self, rec: &Records, cfg: &MachineConfig, report: &RunReport) {
        self.trace_events += rec.events;
        self.spawns += rec.spawns;
        let ra = rec.runtime_allocs();
        self.runtime_allocs.0 += ra.0;
        self.runtime_allocs.1 += ra.1;
        self.digest_ns += rec.digest_ns;
        self.digest_allocs += rec.digest_allocs;
        self.digested += rec.digested;
        if !probe::replay_digest(rec) {
            self.failed_checks.push("digest replay".into());
        }
        let (routes, ns) = probe::replay_routes(rec, &cfg.net, cfg.num_pes);
        if routes != report.net_packets {
            self.failed_checks.push(format!(
                "route replay: {routes} routes, report says {}",
                report.net_packets
            ));
        }
        self.routes += routes;
        self.route_ns += ns;
        let (ops, ns, same) = probe::replay_queue(rec, cfg.ibu_fifo_capacity);
        if !same {
            self.failed_checks.push("queue replay spills".into());
        }
        self.queue_ops += ops;
        self.queue_ns += ns;
        let t = Instant::now();
        black_box(report_digest(report));
        self.digest_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
}

/// Entry point of the traced binary.
pub fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            std::process::exit(2);
        }
    };
    let before = CountingAlloc::raw_totals().0;
    black_box(vec![0u8; 64]);
    if CountingAlloc::raw_totals().0 == before {
        eprintln!("perfbench-traced: the counting allocator is not installed");
        std::process::exit(2);
    }
    match args.workload {
        Workload::SweepMix => sweep(&args),
        w => single(&args, w),
    }
}

/// Run one probed single-run workload. Returns the outcome, the host time
/// the driver returned at, and the verification seconds when the driver
/// lets them be timed directly (FFT).
fn probed(
    w: Workload,
    args: &Args,
    cfg: &MachineConfig,
    probe: BenchProbe,
) -> (Result<RunReport, SimError>, Instant, Option<f64>) {
    let (size, seed) = (args.size, args.seed);
    let attach = |m: &mut Machine| m.attach_probe(Box::new(probe));
    match w {
        Workload::Bitonic => {
            let out = run_bitonic_observed(cfg, &workload::sort_params(size, seed), attach);
            (out.map(|o| o.report), Instant::now(), None)
        }
        Workload::Histogram => {
            let out = run_histogram_observed(cfg, &workload::histogram_params(size, seed), attach);
            (out.map(|o| o.report), Instant::now(), None)
        }
        // fft-p64-digest; sweep-mix is traced by `sweep`.
        _ => {
            let params = workload::fft_params(size, seed);
            let mut m = match build_fft(cfg, &params, attach) {
                Ok(m) => m,
                Err(e) => return (Err(e), Instant::now(), None),
            };
            let report = m.run();
            drop(m.detach_probe());
            let t = Instant::now();
            let out = report.and_then(|r| finish_fft(&m, &params, r).map(|o| o.report));
            let verify = t.elapsed().as_secs_f64();
            (out, Instant::now(), Some(verify))
        }
    }
}

/// Host seconds of `Machine::run` for the FFT with and without a
/// `DigestProbe` attached: the observer layer's share of simulate time.
fn fft_probe_share(args: &Args, cfg: &MachineConfig) -> f64 {
    let params = workload::fft_params(args.size, args.seed);
    let time_run = |with_probe: bool| {
        let (p, _h) = DigestProbe::new();
        let mut m = build_fft(cfg, &params, |m| {
            if with_probe {
                m.attach_probe(Box::new(p));
            }
        })
        .expect("the FFT built once already");
        let t = Instant::now();
        black_box(m.run().expect("the FFT ran once already"));
        t.elapsed().as_secs_f64()
    };
    let with = time_run(true);
    let without = time_run(false);
    1.0 - ratio(without, with)
}

fn single(args: &Args, w: Workload) {
    let cfg = workload::machine_config(args.size);
    let mut reference = args.reference();
    hostprof::set_enabled(true);
    hostprof::reset();
    let (bp, slot) = BenchProbe::new(cfg.num_pes, w == Workload::Fft);
    let t0 = Instant::now();
    let (out, returned, fft_verify) = probed(w, args, &cfg, bp);
    let rec = probe::take(&slot);
    let mut digests = Vec::new();
    if let Ok(r) = &out {
        digests.push(("report", report_digest(r)));
        if w == Workload::Fft {
            digests.push(("trace", rec.live_hex.clone()));
        }
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    let snap = hostprof::snapshot();
    hostprof::set_enabled(false);
    let rep = Rep {
        wall_s: traced_wall,
        setup_s: 0.0,
        sim_cycles: 0,
        attempted: 1,
        failed: u64::from(out.is_err()),
        digests,
    };
    let c = check(&rep, &mut reference);

    let mut layers = Layers::default();
    if let Ok(report) = &out {
        layers.add(&rec, &cfg, report);
    }
    layers.verify_s = fft_verify.unwrap_or_else(|| match rec.last {
        Some(last) => returned.duration_since(last).as_secs_f64(),
        None => 0.0,
    });
    let probe_share = if w == Workload::Fft {
        fft_probe_share(args, &cfg)
    } else {
        0.0
    };

    let mut m = Obj::new();
    let mut missing = Vec::new();
    runtime_metrics(&mut m, &mut missing, &snap, args, &layers);
    m.metric("obs.probe_share", probe_share, "ratio");
    for (name, unit) in SWEEP_METRICS {
        m.metric(name, 0.0, unit);
    }
    finish(args, m, missing, c, rep.attempted, layers, traced_wall);
}

/// The sweep-layer metrics and their units. The single-run workloads do
/// not use the sweep engine and report them as 0.
const SWEEP_METRICS: [(&str, &str); 12] = [
    ("sweep.points", "count"),
    ("sweep.failed_points", "count"),
    ("sweep.attempts_per_point", "attempts/point"),
    ("sweep.key_us_per_point", "us/point"),
    ("sweep.store_us_per_point", "us/point"),
    ("sweep.load_us_per_point", "us/point"),
    ("sweep.warm_hit_ratio", "ratio"),
    ("sweep.journal_s", "s"),
    ("sweep.exec_s", "s"),
    ("sweep.serial_s", "s"),
    ("sweep.tail_point_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
];

/// The runtime, queue, DMA, network and observer metrics shared by every
/// workload: counters from the hostprof snapshot, the rest from `layers`.
fn runtime_metrics(
    m: &mut Obj,
    missing: &mut Vec<String>,
    snap: &Snapshot,
    args: &Args,
    l: &Layers,
) {
    let mut get = |name: &str| match counter(snap, name) {
        Some(v) => Some(v as f64),
        None => {
            missing.push(name.to_string());
            None
        }
    };
    let events = get("calendar.pops");
    let counted = [
        ("runtime.lane.dispatch", get("events.dispatch")),
        ("runtime.lane.local", get("events.local")),
        ("runtime.lane.net", get("events.net")),
        ("proc.queue.pushes", get("queue.pushes")),
        ("proc.dma.services", get("dma.services")),
    ];
    let spills = get("queue.spills");
    if let Some(ev) = events {
        m.metric("runtime.events", ev, "count");
        if let Some(busy) = args.untraced_busy_s {
            m.metric("runtime.ns_per_event", ratio(busy * 1e9, ev), "ns/event");
        }
        let (allocs, bytes) = l.runtime_allocs;
        m.metric(
            "runtime.allocs_per_event",
            ratio(allocs as f64, ev),
            "allocs/event",
        );
        m.metric(
            "runtime.alloc_bytes_per_event",
            ratio(bytes as f64, ev),
            "B/event",
        );
    }
    for (name, v) in counted {
        if let Some(v) = v {
            m.metric(name, v, "count");
        }
    }
    if let (Some(pushes), Some(spills)) = (counted[3].1, spills) {
        m.metric("proc.queue.spill_ratio", ratio(spills, pushes), "ratio");
    }
    m.metric("runtime.spawns", l.spawns as f64, "count");
    m.metric(
        "proc.queue.ns_per_op",
        ratio(l.queue_ns as f64, l.queue_ops as f64),
        "ns/op",
    );
    m.metric("net.routes", l.routes as f64, "count");
    m.metric(
        "net.route_ns_per_packet",
        ratio(l.route_ns as f64, l.routes as f64),
        "ns/packet",
    );
    m.metric("obs.trace_events", l.trace_events as f64, "count");
    let dg = l.digested as f64;
    m.metric(
        "obs.digest_ns_per_event",
        ratio(l.digest_ns as f64, dg),
        "ns/event",
    );
    m.metric(
        "obs.digest_allocs_per_event",
        ratio(l.digest_allocs as f64, dg),
        "allocs/event",
    );
    m.metric("workloads.verify_s", l.verify_s, "s");
    m.metric("stats.report_digest_us", crate::median(&l.digest_us), "us");
}

/// Add the metrics every traced run ends with and print the result.
fn finish(
    args: &Args,
    mut m: Obj,
    missing: Vec<String>,
    c: crate::Check,
    attempted: u64,
    layers: Layers,
    traced_wall: f64,
) {
    if let Some(untraced) = args.untraced_wall_s {
        m.metric("trace.overhead_frac", traced_wall / untraced - 1.0, "ratio");
    }
    m.metric(
        "error_rate",
        ratio(c.failed as f64, attempted as f64),
        "ratio",
    );
    let failed = (c.unexpected + layers.failed_checks.len() as u64).min(attempted);
    let mut rec = record_head(args, "traced");
    rec.num("traced_wall_s", traced_wall);
    rec.str("digest_mismatches", &c.mismatches.join(","));
    rec.str("failed_checks", &layers.failed_checks.join("; "));
    rec.str("missing_counters", &missing.join(","));
    for f in &layers.failed_checks {
        eprintln!("perfbench-traced: replay check failed: {f}");
    }
    emit(failed == 0, attempted, failed, m, rec);
}

/// Run one spec with the bench probe attached, through the same workload
/// driver and parameters `RunSpec::execute` uses. The caller checks that
/// the report digest equals the sweep's, which proves the mapping.
fn run_spec_probed(spec: &RunSpec, probe: BenchProbe) -> Result<RunReport, SimError> {
    let cfg = spec.machine_config();
    let (n, h, seed) = (spec.n(), spec.threads, spec.effective_seed());
    let attach = |m: &mut Machine| m.attach_probe(Box::new(probe));
    match spec.workload {
        Kernel::Sort => {
            let mut p = SortParams::new(n, h);
            p.seed = seed;
            p.block_read = spec.block_read;
            run_bitonic_observed(&cfg, &p, attach).map(|o| o.report)
        }
        Kernel::Fft => {
            let mut p = if spec.comm_only {
                FftParams::comm_only(n, h)
            } else {
                FftParams::new(n, h)
            };
            p.seed = seed;
            if let Some(pc) = spec.point_cycles {
                p.point_cycles = pc;
            }
            run_fft_observed(&cfg, &p, attach).map(|o| o.report)
        }
        Kernel::Bfs => {
            let mut p = BfsParams::new(n, h);
            p.seed = seed;
            run_bfs_observed(&cfg, &p, attach).map(|o| o.report)
        }
        Kernel::Histogram => {
            let mut p = HistogramParams::new(n, h);
            p.seed = seed;
            run_histogram_observed(&cfg, &p, attach).map(|o| o.report)
        }
        Kernel::Spmv => {
            let mut p = SpmvParams::new(n, h);
            p.seed = seed;
            run_spmv_observed(&cfg, &p, attach).map(|o| o.report)
        }
        Kernel::Stencil => {
            let mut p = StencilParams::new(n, h);
            p.seed = seed;
            run_stencil_observed(&cfg, &p, attach).map(|o| o.report)
        }
    }
}

fn sweep(args: &Args) {
    let mut reference = args.reference();
    let dir = sweepmix::fresh_dir(&args.workdir);
    hostprof::set_enabled(true);
    hostprof::reset();
    let t0 = Instant::now();
    let s = sweepmix::setup(args.size, args.seed, &dir);
    let cold = sweepmix::pass(&dir, &s.specs, s.cold);
    let cold_snap = hostprof::snapshot();
    let warm = sweepmix::pass(&dir, &s.specs, s.warm);
    let v = sweepmix::verdict(&s.keys, &cold, &warm);
    let traced_wall = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = journal::load(&dir.join("cold.journal"));
    let journal_load_s = t.elapsed().as_secs_f64();
    let snap = hostprof::snapshot();
    hostprof::set_enabled(false);
    let specs = &s.specs;
    let n = specs.len() as f64;
    let rep = Rep {
        wall_s: traced_wall,
        setup_s: 0.0,
        sim_cycles: v.sim_cycles,
        attempted: specs.len() as u64,
        failed: v.failed,
        digests: vec![("points", v.points), ("failures", v.failures)],
    };
    let c = check(&rep, &mut reference);
    let mut layers = Layers::default();
    if let Err(e) = &loaded {
        layers.failed_checks.push(format!("journal load: {e}"));
    }

    // Cache keys, stores and loads, each timed around the public call.
    let t = Instant::now();
    for spec in specs {
        black_box(CacheKey::for_run(spec, &spec.machine_config()));
    }
    let key_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let cache = RunCache::new(dir.join("replay-cache"));
    let cold_reports = sweepmix::by_index(&s.keys, &cold);
    let stored: Vec<(usize, &RunReport)> = cold_reports
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|r| (i, r)))
        .collect();
    let t = Instant::now();
    for &(i, r) in &stored {
        cache
            .store(&s.keys[i], &specs[i], r)
            .expect("store into the replay cache");
    }
    let store_us = t.elapsed().as_secs_f64() * 1e6 / stored.len().max(1) as f64;
    let t = Instant::now();
    let loads: Vec<Option<RunReport>> = stored
        .iter()
        .map(|&(i, _)| cache.load(&s.keys[i]))
        .collect();
    let load_us = t.elapsed().as_secs_f64() * 1e6 / stored.len().max(1) as f64;
    if loads
        .iter()
        .zip(&stored)
        .any(|(l, (_, r))| l.as_ref().map(report_digest) != Some(report_digest(r)))
    {
        layers
            .failed_checks
            .push("cache store/load round trip".into());
    }

    // Every point serially through `RunSpec::execute`.
    let mut serial = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        black_box(spec.execute().ok());
        serial.push(t.elapsed().as_secs_f64());
    }
    let serial_s: f64 = serial.iter().sum();
    let tail_s = serial.iter().copied().fold(0.0, f64::max);

    // Every successful point once more with the bench probe, replayed.
    for &(i, r) in &stored {
        let spec = &specs[i];
        let cfg = spec.machine_config();
        let (bp, slot) = BenchProbe::new(cfg.num_pes, false);
        let out = run_spec_probed(spec, bp);
        let returned = Instant::now();
        let rec = probe::take(&slot);
        match out {
            Ok(report) if report_digest(&report) == report_digest(r) => {
                layers.add(&rec, &cfg, &report);
                if let Some(last) = rec.last {
                    layers.verify_s += returned.duration_since(last).as_secs_f64();
                }
            }
            _ => layers
                .failed_checks
                .push(format!("probed point {i} differs from the sweep")),
        }
    }
    let _ = fs::remove_dir_all(&dir);

    let mut m = Obj::new();
    let mut missing = Vec::new();
    runtime_metrics(&mut m, &mut missing, &cold_snap, args, &layers);
    m.metric("obs.probe_share", 0.0, "ratio");
    let attempts: u64 = cold.points.len() as u64
        + cold
            .failed
            .iter()
            .map(|f| u64::from(f.attempts))
            .sum::<u64>();
    m.metric("sweep.points", n, "count");
    m.metric("sweep.failed_points", cold.failed.len() as f64, "count");
    m.metric(
        "sweep.attempts_per_point",
        attempts as f64 / n,
        "attempts/point",
    );
    m.metric("sweep.key_us_per_point", key_us, "us/point");
    m.metric("sweep.store_us_per_point", store_us, "us/point");
    m.metric("sweep.load_us_per_point", load_us, "us/point");
    m.metric(
        "sweep.warm_hit_ratio",
        ratio(warm.cache_hits as f64, warm.points.len() as f64),
        "ratio",
    );
    match counter(&snap, "sweep.journal_ns") {
        Some(ns) => m.metric(
            "sweep.journal_s",
            ns as f64 / 1e9 + s.journal_s + journal_load_s,
            "s",
        ),
        None => missing.push("sweep.journal_ns".into()),
    }
    match counter(&snap, "sweep.exec_ns") {
        Some(ns) => m.metric("sweep.exec_s", ns as f64 / 1e9, "s"),
        None => missing.push("sweep.exec_ns".into()),
    }
    m.metric("sweep.serial_s", serial_s, "s");
    m.metric("sweep.tail_point_s", tail_s, "s");
    // The pool's wall is taken untraced when the baseline is known: the
    // hostprof atomics slow the two workers far more than one thread.
    let pool_s = args.untraced_busy_s.unwrap_or(cold.wall.as_secs_f64());
    m.metric(
        "sweep.parallel_efficiency",
        ratio(serial_s, sweepmix::jobs() as f64 * pool_s),
        "ratio",
    );
    finish(args, m, missing, c, rep.attempted, layers, traced_wall);
}
