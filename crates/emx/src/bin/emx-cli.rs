//! `emx-cli` — run EM-X workloads and tools from the command line.
//!
//! ```text
//! emx-cli run     <sort|fft|bfs|histogram|spmv|stencil> --pes 64 --n 4096 --threads 4
//!                 [--comm-only] [--seed N] [--net MODEL] [--preset paper|modern] [--csv]
//!                 [--kill-after EVENTS] [--hostprof]
//! emx-cli sort    --pes 16 --n 16384 --threads 4 [--dist uniform] [--seed 1] [--block] [--em4] [--csv]
//! emx-cli fft     --pes 16 --n 16384 --threads 4 [--comm-only] [--csv]
//! emx-cli trace   <sort|fft|fig4> [--pes N --n N --threads N --seed N]
//!                 [--format chrome|csv] [--events CAP] [--check] [--out FILE]
//! emx-cli metrics <sort|fft|fig4> [--pes N --n N --threads N --seed N] [--csv]
//! emx-cli profile <sort|fft|bfs|histogram|spmv|stencil> [--pes N --n N --threads N --seed N]
//!                 [--comm-only] [--json] [--out FILE]
//! emx-cli profile-diff <report> [<report2>] [--baseline-dir DIR] [--threshold PPM]
//! emx-cli bench-diff <BENCH.json> [<baseline.json>] [--baseline-dir DIR]
//!                 [--threshold PPM] [--wall-threshold PPM]
//! emx-cli sweep   --workload <sort|fft|bfs|histogram|spmv|stencil> --pes 16 --sizes 512,2048
//!                 --threads 1,2,4 [--net MODEL] [--preset paper|modern]
//!                 [--jobs N] [--no-cache] [--csv] [--out results/sweep.csv]
//!                 [--journal FILE] [--watchdog-ms N] [--kill-after EVENTS]
//!                 [--hostprof] [--progress[=EVERY-MS]]
//! emx-cli faults  --workload sort --pes 16 --sizes 512 --threads 1,2,4
//!                 --loss 0,1000,10000 [--seed 1] [--dup PPM] [--delay PPM --max-delay N]
//!                 [--timeout N] [--backoff-cap N] [--max-attempts N] [--check-invariants]
//!                 [--net MODEL] [--preset paper|modern]
//!                 [--jobs N] [--no-cache] [--csv] [--out results/faults.csv]
//!                 [--journal FILE] [--watchdog-ms N] [--kill-after EVENTS]
//! emx-cli resume  <FILE.journal> [--jobs N] [--no-cache] [--csv] [--out FILE.csv]
//!                 [--watchdog-ms N] [--kill-after EVENTS] [--hostprof] [--progress[=EVERY-MS]]
//! emx-cli cache gc [--dir results/cache] [--dry-run]
//! emx-cli fuzz run    [--cases N] [--seed S] [--perturb] [--shrink-failures DIR]
//! emx-cli fuzz replay <file.emxfuzz> [<file2> ...]
//! emx-cli fuzz shrink <file.emxfuzz> [--out FILE]
//! emx-cli nullloop --pes 4 --threads 2 --packets 100
//! emx-cli latency --pes 16 --readers 4 [--reads 64]
//! emx-cli asm     <file.s>            # assemble and list a kernel
//! emx-cli info    [--pes 80]          # dump the machine configuration
//! ```
//!
//! Subcommands taking machine options also accept `--net MODEL` with
//! `MODEL` one of `omega | ideal[:LAT] | crossbar | torus | mesh |
//! fattree[:ARITY]` (the network routing the packets) and `--preset
//! paper|modern` (the cost model: the paper's calibrated charges, or a
//! modern latency/bandwidth ratio — see `docs/WORKLOADS.md`).
//!
//! `run` executes one workload with the streaming trace digest attached
//! and prints the run report followed by two stable fingerprints: a
//! `report digest:` line (canonical report text) and the final `digest:`
//! line hashing the complete `emx-trace` event stream. CI pins both lines
//! for fixed configurations.
//!
//! `trace` runs a workload with the observability recorder attached and
//! exports the `emx-trace/2` event stream as Chrome-trace/Perfetto JSON
//! (open it at <https://ui.perfetto.dev>) or as CSV; `--check` re-parses
//! the JSON with the built-in validator. `metrics` prints the per-PE
//! counter registry, the latency/depth/run-length histograms, and the
//! exact per-kind event totals (see `docs/OBSERVABILITY.md`). The `fig4`
//! workload rebuilds the paper's Figure 4 scenario and verifies its
//! hand-walked FIFO schedule before exporting.
//!
//! `profile` runs a workload with the streaming `emx-profile` probe and
//! prints the digest-stamped `emx-profile/1` report: exact per-PE
//! busy/switch/wait/idle attribution cross-validated against the counter
//! breakdown, remote-read latency blame split into six phases, and the
//! critical path through spawns and reads. `profile-diff` compares two
//! reports (or one report against its committed baseline under
//! `results/baselines/`) and exits 3 when the attribution story drifted
//! beyond `--threshold` (default 20000 ppm = 2 percentage points), 1 on
//! schema or digest errors — see `docs/OBSERVABILITY.md` §Profiling.
//!
//! `--hostprof` (on `run`, `sweep`, `faults` and `resume`) arms the
//! `emx-hostprof` host-side counters and appends the digest-stamped
//! `emx-hostprof/1` report to stdout: deterministic simulation-work
//! counters (calendar pushes/pops, per-lane events, queue and DMA
//! traffic, trace emissions — byte-identical at any `--jobs` value),
//! host-structure counters (sweep points and cache hits) and wall-clock
//! annotations (sweep and journal time, allocator traffic). `bench-diff`
//! compares an `emx-bench/2` file against its committed
//! baseline (default under `results/baselines/`): deterministic fields
//! (cycles, digests, counters) are hard-gated by `--threshold` (default
//! 0 ppm — exact) and exit 3 on drift; wall-clock annotations only warn
//! past `--wall-threshold` (default 500000 ppm). `--progress[=EVERY-MS]`
//! (on `sweep`, `faults` and `resume`) prints a heartbeat line to stderr
//! at the given cadence (default 1 s) — points done/total, cache hits,
//! running labels, ETA — without touching stdout bytes. See
//! `docs/OBSERVABILITY.md` § "Host profiling".
//!
//! Every subcommand that emits a content digest prints it as a final
//! `digest: <32 hex>` line (the canonical form smoke tests assert on).
//!
//! `sweep` runs a (per-PE size × thread count) grid through the parallel
//! cached sweep engine (`emx-sweep`): points fan out across host threads,
//! output order is deterministic, and simulated points are cached under
//! `results/cache/`. With `--out FILE.csv` it also writes the CSV plus a
//! JSON provenance sidecar (see `docs/SWEEPS.md`).
//!
//! `faults` runs the fault matrix: the same grid crossed with a list of
//! packet-loss rates (ppm), each point under a deterministic per-point
//! seed derived from `--seed`. Workloads complete under loss via the
//! remote-read retry protocol; a row whose point still fails is omitted
//! from the CSV and recorded in the sidecar's `failed_runs`. The final
//! `digest:` line is a stable content digest of every report — rerunning
//! with the same seed must reproduce it byte-for-byte, and the `--loss 0`
//! rows match a fault-free `sweep` exactly (see `docs/FAULTS.md`).
//!
//! `sweep` and `faults` accept `--journal FILE` to arm a write-ahead
//! journal committing every finished point to disk, `--watchdog-ms N` to
//! requeue points whose worker goes silent for N milliseconds, and
//! `--kill-after EVENTS` to abort the process (no cleanup, a real crash)
//! after that many simulated events — the crash-recovery test switch.
//! `resume <FILE.journal>` finishes an interrupted journaled sweep:
//! committed points are replayed verbatim, the rest re-execute, and the
//! resulting CSV is byte-identical to an uninterrupted run (see
//! `docs/CHECKPOINT.md`). `cache gc` sweeps the run cache directory,
//! dropping quarantine markers, orphaned temp files, and corrupt entries;
//! `--dry-run` previews without deleting, and both modes end with a
//! stable `digest:` line over the scan listing.
//!
//! Exit codes: 0 success; 1 runtime error; 2 usage error (unknown
//! command/subcommand/flag or missing required argument); 3 drift
//! (`profile-diff`, `bench-diff`); 4 syntactically invalid argument
//! value. The table is documented in README.md and relied on by scripts
//! and CI.
//!
//! `fuzz run` drives the deterministic fuzzing campaign (`emx-fuzz`):
//! seeded random programs crossed with random machine shapes and fault
//! plans, each judged by the three-way replay/checkpoint/invariant oracle.
//! The summary is byte-identical for the same `--cases`/`--seed` pair and
//! ends with the canonical `digest:` line; the exit code is nonzero when any
//! oracle failure was recorded. `--perturb` (or `EMX_FUZZ_PERTURB=1`)
//! arms the test-only network-latency mutation that a sound oracle must
//! catch as digest mismatches. `fuzz replay` re-runs committed `.emxfuzz`
//! cases and checks their pinned verdicts and digests; `fuzz shrink`
//! minimizes a failing case. See `docs/FUZZING.md`.

use std::process::ExitCode;
use std::time::Duration;

use emx::prelude::*;
use emx::sweep::{
    grid, provenance, GcAction, Journal, ProgressConfig, RunCache, SweepEngine, SweepOutcome,
    WatchdogConfig, Workload, DEFAULT_CACHE_DIR,
};
use emx::workloads::{run_null_loop, NullLoopParams};

/// Opt in to the hostprof counting allocator, so `--hostprof` reports
/// carry `alloc.allocs` / `alloc.bytes` (see `docs/OBSERVABILITY.md`
/// § "Host profiling"). Counting is two relaxed adds per allocation.
#[global_allocator]
static ALLOC: emx::hostprof::CountingAlloc = emx::hostprof::CountingAlloc::new();

/// Minimal flag parser: `--name value` / `--name=value` pairs plus
/// boolean `--name` switches and positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((name, value)) = name.split_once('=') {
                    flags.push((name.to_string(), Some(value.to_string())));
                    continue;
                }
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if value.is_some() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }
}

/// Parse a `--net` word: `omega | ideal[:LAT] | crossbar | torus | mesh |
/// fattree[:ARITY]`.
fn parse_net(s: &str) -> Result<NetModelKind, String> {
    let (head, param) = match s.split_once(':') {
        Some((h, p)) => (h, Some(p)),
        None => (s, None),
    };
    let num = |default: u64| -> Result<u64, String> {
        match param {
            None => Ok(default),
            Some(p) => p
                .parse()
                .map_err(|_| format!("--net {head}:{p}: {p:?} is not a number")),
        }
    };
    match head {
        "omega" => Ok(NetModelKind::CircularOmega),
        "ideal" => Ok(NetModelKind::Ideal {
            latency: num(1)? as u32,
        }),
        "crossbar" => Ok(NetModelKind::FullCrossbar),
        "torus" => Ok(NetModelKind::Torus2D),
        "mesh" => Ok(NetModelKind::Mesh2D),
        "fattree" | "fat-tree" => Ok(NetModelKind::FatTree {
            arity: num(4)? as u32,
        }),
        other => Err(format!(
            "unknown network {other:?} (omega|ideal[:LAT]|crossbar|torus|mesh|fattree[:ARITY])"
        )),
    }
}

/// Parse a `--preset` word into a cost-model preset.
fn parse_preset(s: &str) -> Result<CostPreset, String> {
    CostPreset::parse(s).ok_or(format!("unknown preset {s:?} (paper|modern)"))
}

fn machine_cfg(args: &Args, default_pes: usize) -> Result<MachineConfig, String> {
    let pes = args.usize_or("pes", default_pes)?;
    let mut cfg = MachineConfig::with_pes(pes);
    cfg.local_memory_words = args.usize_or("memory-words", 1 << 18)?;
    if args.has("em4") {
        cfg.service_mode = ServiceMode::ExuThread;
    }
    if args.has("priority-responses") {
        cfg.priority_read_responses = true;
    }
    if let Some(net) = args.get("net") {
        cfg.net.model = parse_net(net)?;
    }
    if let Some(preset) = args.get("preset") {
        parse_preset(preset)?.apply(&mut cfg);
    }
    Ok(cfg)
}

fn print_report(report: &RunReport, csv: bool) {
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "elapsed (s)".to_string(),
        format!("{:.6e}", report.elapsed_secs()),
    ]);
    t.row([
        "comm+sync (s)".to_string(),
        format!("{:.6e}", report.comm_sync_time_secs()),
    ]);
    t.row([
        "pure idle (s)".to_string(),
        format!("{:.6e}", report.comm_time_secs()),
    ]);
    t.row(["remote reads".to_string(), report.total_reads().to_string()]);
    t.row(["packets".to_string(), report.total_packets().to_string()]);
    t.row(["net packets".to_string(), report.net_packets.to_string()]);
    t.row([
        "mean utilization".to_string(),
        format!("{:.3}", report.mean_utilization()),
    ]);
    let s = report.mean_switches();
    t.row([
        "switches/PE remote-read".to_string(),
        s.remote_read.to_string(),
    ]);
    t.row(["switches/PE iter-sync".to_string(), s.iter_sync.to_string()]);
    t.row([
        "switches/PE thread-sync".to_string(),
        s.thread_sync.to_string(),
    ]);
    let f = report.mean_breakdown().fractions();
    for (i, label) in Breakdown::LABELS.iter().enumerate() {
        t.row([format!("{label} %"), format!("{:.1}", f[i] * 100.0)]);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
}

/// Arm the `emx-hostprof` counter banks when `--hostprof` is present:
/// enable the global gate and zero every bank so the final report covers
/// exactly this invocation. Returns whether profiling is on.
fn arm_hostprof(args: &Args) -> bool {
    let on = args.has("hostprof");
    if on {
        emx::hostprof::set_enabled(true);
        emx::hostprof::reset();
    }
    on
}

/// Settle and print the digest-stamped `emx-hostprof/1` report for the
/// finished invocation (see `docs/OBSERVABILITY.md` § "Host profiling").
fn print_hostprof(meta: Vec<(String, String)>) {
    let rep = emx::hostprof::HostProfReport::new(meta, emx::hostprof::snapshot());
    print!("{}", rep.canonical_text());
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let workload = args.positional.first().map(String::as_str).unwrap_or("fft");
    let cfg = machine_cfg(args, 64)?;
    let n = args.usize_or("n", 4096)?;
    let threads = args.usize_or("threads", 4)?;
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let (probe, handle) = DigestProbe::new();
    let report = match workload {
        "sort" => {
            let mut params = SortParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            params.block_read = args.has("block");
            run_bitonic_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        "fft" => {
            let mut params = if args.has("comm-only") {
                FftParams::comm_only(n, threads)
            } else {
                FftParams::new(n, threads)
            };
            params.seed = args.u64_or("seed", params.seed)?;
            run_fft_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        "bfs" => {
            let mut params = BfsParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_bfs_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        "histogram" => {
            let mut params = HistogramParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_histogram_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        "spmv" => {
            let mut params = SpmvParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_spmv_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        "stencil" => {
            let mut params = StencilParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_stencil_observed(&cfg, &params, |m| m.attach_probe(Box::new(probe)))
                .map_err(|e| e.to_string())?
                .report
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (sort|fft|bfs|histogram|spmv|stencil)"
            ))
        }
    };
    if !args.has("csv") {
        println!(
            "{workload}: {} elements on {} PEs, h={}, {} trace events",
            n,
            cfg.num_pes,
            threads,
            handle.events()
        );
    }
    print_report(&report, args.has("csv"));
    println!("report digest: {}", emx::stats::report_digest(&report));
    println!("digest: {}", handle.hex());
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), "run".to_string()),
            ("workload".to_string(), workload.to_string()),
            ("pes".to_string(), cfg.num_pes.to_string()),
            ("n".to_string(), n.to_string()),
            ("threads".to_string(), threads.to_string()),
        ]);
    }
    Ok(())
}

fn cmd_sort(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 16)?;
    let n = args.usize_or("n", 16 * 1024)?;
    let threads = args.usize_or("threads", 4)?;
    let mut params = SortParams::new(n, threads);
    params.seed = args.u64_or("seed", params.seed)?;
    params.block_read = args.has("block");
    params.dist = match args.get("dist").unwrap_or("uniform") {
        "uniform" => KeyDist::Uniform,
        "sorted" => KeyDist::Sorted,
        "reverse" => KeyDist::Reverse,
        "gaussian" => KeyDist::Gaussian,
        "constant" => KeyDist::Constant,
        other => return Err(format!("unknown distribution {other:?}")),
    };
    let out = run_bitonic(&cfg, &params).map_err(|e| e.to_string())?;
    if !args.has("csv") {
        println!(
            "sorted {} keys on {} PEs with h={} (verified)",
            n, cfg.num_pes, threads
        );
    }
    print_report(&out.report, args.has("csv"));
    Ok(())
}

fn cmd_fft(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 16)?;
    let n = args.usize_or("n", 16 * 1024)?;
    let threads = args.usize_or("threads", 4)?;
    let mut params = if args.has("comm-only") {
        FftParams::comm_only(n, threads)
    } else {
        FftParams::new(n, threads)
    };
    params.seed = args.u64_or("seed", params.seed)?;
    let out = run_fft(&cfg, &params).map_err(|e| e.to_string())?;
    if !args.has("csv") {
        println!(
            "transformed {} points on {} PEs with h={} (verified against f64 reference)",
            n, cfg.num_pes, threads
        );
    }
    print_report(&out.report, args.has("csv"));
    Ok(())
}

/// Run the named workload with a [`Recorder`] attached and return the
/// observation plus the machine clock for timestamp conversion.
fn observed_run(args: &Args, workload: &str) -> Result<(Observation, u64), String> {
    let capacity = args.usize_or("events", 1 << 20)?;
    let (rec, handle) = Recorder::bounded(capacity);
    let clock_hz;
    match workload {
        "sort" => {
            let cfg = machine_cfg(args, 2)?;
            clock_hz = cfg.clock_hz;
            let n = args.usize_or("n", 64)?;
            let threads = args.usize_or("threads", 2)?;
            let mut params = SortParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_bitonic_observed(&cfg, &params, |m| m.attach_probe(Box::new(rec)))
                .map_err(|e| e.to_string())?;
        }
        "fft" => {
            let cfg = machine_cfg(args, 2)?;
            clock_hz = cfg.clock_hz;
            let n = args.usize_or("n", 64)?;
            let threads = args.usize_or("threads", 2)?;
            let mut params = FftParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            run_fft_observed(&cfg, &params, |m| m.attach_probe(Box::new(rec)))
                .map_err(|e| e.to_string())?;
        }
        "fig4" => {
            let mut m = emx::workloads::fig4::build().map_err(|e| e.to_string())?;
            clock_hz = MachineConfig::with_pes(2).clock_hz;
            m.attach_probe(Box::new(rec));
            m.run().map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown workload {other:?} (sort|fft|fig4)")),
    }
    Ok((handle.finish(), clock_hz))
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let workload = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("fig4");
    let (obs, clock_hz) = observed_run(args, workload)?;

    if workload == "fig4" {
        // The hand-walked schedule of the paper's Figure 4 must hold.
        emx::workloads::fig4::check_schedule(obs.log.events())?;
        eprintln!("fig4: dispatch sequence matches the paper's FIFO schedule");
    }

    let format = args.get("format").unwrap_or("chrome");
    let text = match format {
        "chrome" | "json" | "perfetto" => chrome_trace_json(&obs, clock_hz),
        "csv" => events_csv(&obs, clock_hz),
        other => return Err(format!("unknown format {other:?} (chrome|csv)")),
    };
    if args.has("check") {
        let json = if format == "csv" {
            chrome_trace_json(&obs, clock_hz)
        } else {
            text.clone()
        };
        let sum = validate_chrome_trace(&json)?;
        eprintln!(
            "trace valid: {} events ({} slices, {} asyncs, {} counters, {} instants)",
            sum.events, sum.slices, sum.asyncs, sum.counters, sum.instants
        );
        eprintln!("digest: {}", sum.digest);
    }
    match args.get("out") {
        Some(out) => {
            let path = std::path::Path::new(out);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!(
                "wrote {} ({} events, {} dropped) — open at https://ui.perfetto.dev",
                path.display(),
                obs.log.total(),
                obs.log.dropped()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    let workload = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("fig4");
    let (obs, _) = observed_run(args, workload)?;
    if args.has("csv") {
        print!("{}", obs.metrics.canonical_text());
        return Ok(());
    }
    println!("per-PE counters ({workload}):");
    print!("{}", obs.metrics.to_table().render());
    println!("\nlatency / depth / run-length histograms:");
    print!("{}", obs.metrics.histograms_table().render());
    println!("\nevent totals (exact, including any dropped past the buffer):");
    let mut t = Table::new(["event", "count"]);
    for (name, count) in obs.log.counts() {
        t.row([name.to_string(), count.to_string()]);
    }
    print!("{}", t.render());
    println!("digest: {}", obs.metrics.digest());
    Ok(())
}

/// Run the named workload with the streaming profiler attached and
/// return the finished profile report with provenance metadata filled in.
fn profiled_run(args: &Args, workload: &str) -> Result<emx::profile::ProfileReport, String> {
    let cfg = machine_cfg(args, 16)?;
    let n = args.usize_or("n", 16 * 256)?;
    let threads = args.usize_or("threads", 4)?;
    let (probe, handle) = Profiler::new(cfg.costs);
    let mut probe = Some(probe);
    let mut meta = vec![
        ("workload".to_string(), workload.to_string()),
        ("pes".to_string(), cfg.num_pes.to_string()),
        ("n".to_string(), n.to_string()),
        ("threads".to_string(), threads.to_string()),
    ];
    let report = match workload {
        "sort" => {
            let mut params = SortParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            params.block_read = args.has("block");
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_bitonic_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        "fft" => {
            let mut params = if args.has("comm-only") {
                FftParams::comm_only(n, threads)
            } else {
                FftParams::new(n, threads)
            };
            params.seed = args.u64_or("seed", params.seed)?;
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_fft_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        "bfs" => {
            let mut params = BfsParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_bfs_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        "histogram" => {
            let mut params = HistogramParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_histogram_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        "spmv" => {
            let mut params = SpmvParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_spmv_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        "stencil" => {
            let mut params = StencilParams::new(n, threads);
            params.seed = args.u64_or("seed", params.seed)?;
            meta.push(("seed".to_string(), params.seed.to_string()));
            run_stencil_observed(&cfg, &params, |m| {
                m.attach_probe(Box::new(probe.take().unwrap()));
            })
            .map_err(|e| e.to_string())?
            .report
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (sort|fft|bfs|histogram|spmv|stencil)"
            ))
        }
    };
    let mut rep = handle.finish(&report);
    rep.meta = meta;
    Ok(rep)
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let workload = args.positional.first().map(String::as_str).unwrap_or("fft");
    let rep = profiled_run(args, workload)?;
    let text = if args.has("json") {
        rep.to_json()
    } else {
        rep.canonical_text()
    };
    match args.get("out") {
        Some(out) => {
            let path = std::path::Path::new(out);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {}", path.display());
            println!("digest: {}", rep.digest());
        }
        // The canonical text already ends with its `digest:` line.
        None => print!("{text}"),
    }
    Ok(())
}

/// `profile-diff` returns its verdict through the exit code (0 ok,
/// 1 schema/parse error, 3 attribution drift), so it bypasses the shared
/// `Result<(), String>` plumbing of the other subcommands.
fn cmd_profile_diff(args: &Args) -> ExitCode {
    match profile_diff_inner(args) {
        Ok(DiffOutcome::Drift) => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("emx-cli: {msg}");
            ExitCode::from(1)
        }
    }
}

fn profile_diff_inner(args: &Args) -> Result<DiffOutcome, String> {
    let a_path = args
        .positional
        .first()
        .ok_or("profile-diff wants <report> [<report2>]")?;
    let b_path = match args.positional.get(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Single-report mode: compare against the committed baseline
            // of the same file name.
            let dir = args.get("baseline-dir").unwrap_or("results/baselines");
            let name = std::path::Path::new(a_path)
                .file_name()
                .ok_or_else(|| format!("{a_path}: not a file path"))?;
            std::path::Path::new(dir).join(name)
        }
    };
    let threshold = args.u64_or("threshold", DEFAULT_THRESHOLD_PPM)?;
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let a =
        parse_text(&read(std::path::Path::new(a_path))?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = parse_text(&read(&b_path)?).map_err(|e| format!("{}: {e}", b_path.display()))?;
    let d = diff_profiles(&a, &b, threshold);
    print!("{}", d.render());
    Ok(d.outcome)
}

/// `bench-diff` mirrors `profile-diff`'s exit-code contract (0 ok,
/// 1 schema/parse error, 3 deterministic drift) for the benchmark
/// trajectory files `figures bench` writes.
fn cmd_bench_diff(args: &Args) -> ExitCode {
    match bench_diff_inner(args) {
        Ok(emx::hostprof::DriftKind::Drift) => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("emx-cli: {msg}");
            ExitCode::from(1)
        }
    }
}

fn bench_diff_inner(args: &Args) -> Result<emx::hostprof::DriftKind, String> {
    let a_path = args
        .positional
        .first()
        .ok_or("bench-diff wants <BENCH.json> [<baseline.json>]")?;
    let b_path = match args.positional.get(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Single-file mode: compare against the committed baseline of
            // the same file name, like profile-diff.
            let dir = args.get("baseline-dir").unwrap_or("results/baselines");
            let name = std::path::Path::new(a_path)
                .file_name()
                .ok_or_else(|| format!("{a_path}: not a file path"))?;
            std::path::Path::new(dir).join(name)
        }
    };
    let threshold = args.u64_or("threshold", emx::hostprof::DEFAULT_THRESHOLD_PPM)?;
    let wall_threshold =
        args.u64_or("wall-threshold", emx::hostprof::DEFAULT_WALL_THRESHOLD_PPM)?;
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let cur = parse_bench_file(&read(std::path::Path::new(a_path))?)
        .map_err(|e| format!("{a_path}: {e}"))?;
    let base =
        parse_bench_file(&read(&b_path)?).map_err(|e| format!("{}: {e}", b_path.display()))?;
    let d = emx::hostprof::diff_bench(&cur, &base, threshold, wall_threshold);
    print!("{}", d.render());
    Ok(d.outcome)
}

/// Parse an `emx-bench/2` JSON file into the structures
/// [`emx::hostprof::diff_bench`] compares. Deterministic per-point fields
/// (the `counters` and `host` objects) land in `counters`; wall-clock
/// annotations (the `wall` object plus the top-level `wall_ns`) land in
/// `wall`.
fn parse_bench_file(text: &str) -> Result<emx::hostprof::BenchFile, String> {
    use emx::obs::JsonValue;
    let v = emx::obs::parse_json(text)?;
    let str_field = |v: &JsonValue, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {k:?}"))
    };
    let schema = str_field(&v, "schema")?;
    if !emx::hostprof::HOSTPROF_SCHEMAS.contains(&schema.as_str()) {
        return Err(format!(
            "unsupported schema {schema:?} (want one of {:?}; regenerate with `figures bench`)",
            emx::hostprof::HOSTPROF_SCHEMAS
        ));
    }
    let scale = str_field(&v, "scale")?;
    let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_num).map(|n| n as u64);
    let kvs = |v: &JsonValue, k: &str| -> Vec<(String, u64)> {
        match v.get(k) {
            Some(JsonValue::Obj(m)) => m
                .iter()
                .filter_map(|(n, val)| val.as_num().map(|x| (n.clone(), x as u64)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut points = Vec::new();
    let arr = v
        .get("points")
        .and_then(JsonValue::as_arr)
        .ok_or("missing points array")?;
    for (i, p) in arr.iter().enumerate() {
        let workload = str_field(p, "workload").map_err(|e| format!("point {i}: {e}"))?;
        let mut key = workload;
        for k in ["p", "h", "r"] {
            if let Some(n) = num(p, k) {
                key.push_str(&format!(" {k}={n}"));
            }
        }
        let cycles = num(p, "cycles").ok_or_else(|| format!("point {i}: missing cycles"))?;
        let digest = str_field(p, "digest").map_err(|e| format!("point {i}: {e}"))?;
        let hostprof_digest = p
            .get("hostprof_digest")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let mut counters = kvs(p, "counters");
        counters.extend(kvs(p, "host"));
        let mut wall = kvs(p, "wall");
        if let Some(n) = num(p, "wall_ns") {
            wall.push(("wall_ns".to_string(), n));
        }
        points.push(emx::hostprof::BenchPoint {
            key,
            cycles,
            digest,
            hostprof_digest,
            counters,
            wall,
        });
    }
    Ok(emx::hostprof::BenchFile {
        schema,
        scale,
        points,
    })
}

fn parse_list(name: &str, raw: &str) -> Result<Vec<usize>, String> {
    let vals: Result<Vec<usize>, _> = raw.split(',').map(|v| v.trim().parse()).collect();
    match vals {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!(
            "--{name} wants a comma-separated list of numbers, got {raw:?}"
        )),
    }
}

/// Build a [`SweepEngine`] from the shared sweep flags: `--jobs`,
/// `--no-cache`, `--watchdog-ms`, `--progress[=EVERY-MS]`.
fn engine_from_args(args: &Args) -> Result<SweepEngine, String> {
    let mut engine = SweepEngine::new();
    if let Some(j) = args.get("jobs") {
        let j: usize = j
            .parse()
            .map_err(|_| format!("--jobs wants a number, got {j:?}"))?;
        engine = engine.jobs(j);
    }
    if args.has("no-cache") {
        engine = engine.cache(None);
    }
    if let Some(ms) = args.get("watchdog-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--watchdog-ms wants milliseconds, got {ms:?}"))?;
        engine = engine.watchdog(WatchdogConfig::with_threshold(Duration::from_millis(ms)));
    }
    if args.has("progress") {
        let cfg =
            match args.get("progress") {
                None => ProgressConfig::default(),
                Some(ms) => ProgressConfig::every_ms(ms.parse().map_err(|_| {
                    format!("--progress wants a cadence in milliseconds, got {ms:?}")
                })?),
            };
        engine = engine.progress(cfg);
    }
    Ok(engine)
}

/// Arm the simulated-event kill switch when `--kill-after` is present:
/// the process aborts — no destructors, no flushing, a faithful crash —
/// after exactly that many events. Pairs with `--journal` and `resume`
/// to test crash recovery end to end.
fn arm_kill_switch(args: &Args) -> Result<(), String> {
    if let Some(n) = args.get("kill-after") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("--kill-after wants an event count, got {n:?}"))?;
        emx::faults::kill::arm(n);
    }
    Ok(())
}

/// The `sweep` output table, shared with `resume`.
fn sweep_table(outcome: &SweepOutcome) -> Table {
    let mut t = Table::new(["n", "h", "elapsed (s)", "comm+sync (s)", "cached"]);
    for pt in &outcome.points {
        t.row([
            pt.spec.n().to_string(),
            pt.spec.threads.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            pt.cached.to_string(),
        ]);
    }
    t
}

/// The `faults` output table plus the matrix content digest, shared with
/// `resume`.
fn faults_table(outcome: &SweepOutcome) -> (Table, String) {
    let mut t = Table::new([
        "n",
        "h",
        "loss_ppm",
        "elapsed (s)",
        "comm+sync (s)",
        "dropped",
        "retries",
        "stale",
        "forced_spills",
    ]);
    let mut digest = emx::stats::Digest128::new();
    for pt in &outcome.points {
        let loss = pt.spec.faults.as_ref().map(|f| f.drop_ppm).unwrap_or(0);
        let f = pt.report.faults.unwrap_or_default();
        t.row([
            pt.spec.n().to_string(),
            pt.spec.threads.to_string(),
            loss.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            f.dropped.to_string(),
            f.retries.to_string(),
            f.stale_responses.to_string(),
            f.forced_spills.to_string(),
        ]);
        digest.write_str(&emx::stats::digest::report_canonical_text(&pt.report));
    }
    (t, digest.hex())
}

/// Write `table` as CSV to `--out` with a provenance sidecar, if asked.
fn write_csv_out(
    args: &Args,
    table: &Table,
    figure: &str,
    outcome: &SweepOutcome,
    extra: &[(&str, String)],
) -> Result<(), String> {
    let Some(out) = args.get("out") else {
        return Ok(());
    };
    let path = std::path::Path::new(out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, table.to_csv()).map_err(|e| format!("{out}: {e}"))?;
    let side = provenance::write_sidecar(path, figure, outcome, extra)
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {} and {}", path.display(), side.display());
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let workload = match args.get("workload") {
        None => Workload::Sort,
        Some(w) => Workload::parse(w).ok_or(format!(
            "unknown workload {w:?} (sort|fft|bfs|histogram|spmv|stencil)"
        ))?,
    };
    let pes = args.usize_or("pes", 16)?;
    let sizes = parse_list("sizes", args.get("sizes").unwrap_or("512,2048"))?;
    let threads = parse_list("threads", args.get("threads").unwrap_or("1,2,4,8"))?;

    let mut engine = engine_from_args(args)?;
    let net_model = args.get("net").map(parse_net).transpose()?;
    let preset = args.get("preset").map(parse_preset).transpose()?;
    let mut specs = grid(workload, pes, &sizes, &threads);
    for s in &mut specs {
        if let Some(net) = net_model {
            s.net_model = net;
        }
        if let Some(p) = preset {
            s.preset = p;
        }
    }
    let figure = format!("sweep_{}_p{pes}", workload.name());
    if let Some(journal) = args.get("journal") {
        engine = engine.journal(
            Journal::create(journal, "sweep", &figure, &specs)
                .map_err(|e| format!("{journal}: {e}"))?,
        );
    }
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let outcome = engine.run(specs);

    let t = sweep_table(&outcome);
    if args.has("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    write_csv_out(
        args,
        &t,
        &figure,
        &outcome,
        &[("source", "emx-cli sweep".to_string())],
    )?;
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), "sweep".to_string()),
            ("figure".to_string(), figure),
            ("points".to_string(), outcome.points.len().to_string()),
            ("jobs".to_string(), outcome.jobs.to_string()),
        ]);
    }
    Ok(())
}

/// Derive the per-point fault seed: a stable hash of the base seed and
/// the point's coordinates, so every matrix point draws an independent
/// fault stream and the whole matrix is reproducible from `--seed` alone.
fn point_seed(base: u64, per_pe: usize, threads: usize, loss_ppm: u32) -> u64 {
    emx::stats::digest::fnv1a_64(
        format!("emx-faults {base} {per_pe} {threads} {loss_ppm}").as_bytes(),
    )
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let workload = match args.get("workload") {
        None => Workload::Sort,
        Some(w) => Workload::parse(w).ok_or(format!(
            "unknown workload {w:?} (sort|fft|bfs|histogram|spmv|stencil)"
        ))?,
    };
    let pes = args.usize_or("pes", 16)?;
    let sizes = parse_list("sizes", args.get("sizes").unwrap_or("512"))?;
    let threads = parse_list("threads", args.get("threads").unwrap_or("1,2,4"))?;
    let losses = parse_list("loss", args.get("loss").unwrap_or("0,1000,10000"))?;
    let seed = args.u64_or("seed", 1)?;
    let dup = args.u64_or("dup", 0)? as u32;
    let delay = args.u64_or("delay", 0)? as u32;
    let max_delay = args.u64_or("max-delay", if delay > 0 { 16 } else { 0 })? as u32;
    let timeout = args.u64_or("timeout", 128)? as u32;
    let backoff_cap = args.u64_or("backoff-cap", 4096)? as u32;
    let max_attempts = args.u64_or("max-attempts", 0)? as u32;
    let check = args.has("check-invariants");
    let net_model = args.get("net").map(parse_net).transpose()?;
    let preset = args.get("preset").map(parse_preset).transpose()?;

    // Grid order: size-major, then threads, then loss — every loss column
    // of one (n, h) row is adjacent in the CSV.
    let mut specs = Vec::new();
    for &per_pe in &sizes {
        for &h in &threads {
            for &loss in &losses {
                let loss =
                    u32::try_from(loss).map_err(|_| format!("--loss {loss} out of range"))?;
                let mut spec = RunSpec::new(workload, pes, per_pe, h);
                if let Some(net) = net_model {
                    spec.net_model = net;
                }
                if let Some(p) = preset {
                    spec.preset = p;
                }
                let mut fs = FaultSpec::new(point_seed(seed, per_pe, h, loss));
                fs.drop_ppm = loss;
                fs.dup_ppm = dup;
                fs.delay_ppm = delay;
                fs.max_delay = max_delay;
                fs.retry_timeout = timeout;
                fs.retry_backoff_cap = backoff_cap;
                fs.max_attempts = max_attempts;
                fs.check_invariants = check;
                fs.validate().map_err(|e| e.to_string())?;
                // A no-op plan is exactly the paper's lossless machine:
                // leave the fault machinery unarmed so the run (and its
                // digest and cache entry) is identical to a plain sweep.
                spec.faults = (!fs.is_noop()).then_some(fs);
                specs.push(spec);
            }
        }
    }

    let mut engine = engine_from_args(args)?;
    let figure = format!("faults_{}_p{pes}", workload.name());
    if let Some(journal) = args.get("journal") {
        engine = engine.journal(
            Journal::create(journal, "faults", &figure, &specs)
                .map_err(|e| format!("{journal}: {e}"))?,
        );
    }
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let outcome = engine.run(specs);

    let (t, digest) = faults_table(&outcome);
    if args.has("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    println!("digest: {digest}");
    for f in &outcome.failed {
        eprintln!(
            "emx-cli: point {} FAILED after {} attempts: {}",
            f.spec.label(),
            f.attempts,
            f.error
        );
    }
    write_csv_out(
        args,
        &t,
        &figure,
        &outcome,
        &[
            ("source", "emx-cli faults".to_string()),
            ("seed", seed.to_string()),
            ("matrix_digest", digest),
        ],
    )?;
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), "faults".to_string()),
            ("figure".to_string(), figure),
            ("points".to_string(), outcome.points.len().to_string()),
            ("jobs".to_string(), outcome.jobs.to_string()),
        ]);
    }
    Ok(())
}

fn cmd_resume(args: &Args) -> Result<(), String> {
    let journal = args
        .positional
        .first()
        .ok_or("resume wants a journal file")?;
    let engine = engine_from_args(args)?;
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let resumed = emx::sweep::resume(std::path::Path::new(journal), engine)?;
    let outcome = &resumed.outcome;
    // The CSV table is chosen by the journal's recorded mode, so a
    // resumed run produces byte-identical output to the uninterrupted
    // invocation it recovers.
    let mut extra = vec![("source", "emx-cli resume".to_string())];
    let (t, digest) = match resumed.mode.as_str() {
        "sweep" => (sweep_table(outcome), None),
        "faults" => {
            let (t, digest) = faults_table(outcome);
            extra.push(("matrix_digest", digest.clone()));
            (t, Some(digest))
        }
        other => return Err(format!("{journal}: unknown journal mode {other:?}")),
    };
    if args.has("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    if let Some(digest) = digest {
        println!("digest: {digest}");
    }
    for f in &outcome.failed {
        eprintln!(
            "emx-cli: point {} FAILED after {} attempts: {}",
            f.spec.label(),
            f.attempts,
            f.error
        );
    }
    write_csv_out(args, &t, &resumed.label, outcome, &extra)?;
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), "resume".to_string()),
            ("figure".to_string(), resumed.label.clone()),
            ("points".to_string(), outcome.points.len().to_string()),
            ("jobs".to_string(), outcome.jobs.to_string()),
        ]);
    }
    Ok(())
}

fn cmd_cache(args: &Args) -> Result<(), String> {
    // Shape is validated in main: the only subcommand today is `gc`.
    let dir = args.get("dir").unwrap_or(DEFAULT_CACHE_DIR);
    let dry = args.has("dry-run");
    let report = RunCache::new(dir)
        .gc(dry)
        .map_err(|e| format!("{dir}: {e}"))?;
    for (action, name) in &report.files {
        println!("{} {name}", action.word());
    }
    println!(
        "cache gc{}: {} kept, {} quarantine, {} orphan, {} corrupt, {} skipped ({} dropped)",
        if dry { " (dry run)" } else { "" },
        report.count(GcAction::Keep),
        report.count(GcAction::DropQuarantine),
        report.count(GcAction::DropOrphan),
        report.count(GcAction::DropCorrupt),
        report.count(GcAction::Skip),
        if dry {
            format!("would be: {}", report.dropped())
        } else {
            report.dropped().to_string()
        },
    );
    println!("digest: {}", report.digest());
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        Some("run") => fuzz_run(args),
        Some("replay") => fuzz_replay(args),
        Some("shrink") => fuzz_shrink(args),
        _ => Err("fuzz wants a subcommand: run | replay | shrink".into()),
    }
}

fn fuzz_run(args: &Args) -> Result<(), String> {
    let opts = emx::fuzz::CampaignOptions {
        cases: args.usize_or("cases", 100)?,
        seed: args.u64_or("seed", 7)?,
        perturb_replay: args.has("perturb")
            || std::env::var("EMX_FUZZ_PERTURB").is_ok_and(|v| v == "1"),
    };
    let summary = emx::fuzz::run_campaign(&opts);
    print!("{}", summary.render());
    if let Some(dir) = args.get("shrink-failures") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for f in &summary.failures {
            let shrunk = emx::fuzz::shrink(&f.case, &emx::fuzz::ShrinkOptions::default());
            let mut case = shrunk.case;
            case.name = format!("shrunk-{:016x}", f.case_seed);
            let outcome = emx::fuzz::run_case(&case, false);
            case.expect = Some(emx::fuzz::Expected {
                verdict: outcome.verdict.as_str(),
                trace_digest: Some(outcome.trace_digest),
            });
            let path = dir.join(format!("case-{:06}-{}.emxfuzz", f.index, outcome.verdict));
            std::fs::write(&path, case.to_text())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "wrote {} ({} shrink attempts)",
                path.display(),
                shrunk.attempts
            );
        }
    }
    let failures = summary.failure_count();
    if failures > 0 {
        return Err(format!("{failures} oracle failure(s)"));
    }
    Ok(())
}

fn fuzz_replay(args: &Args) -> Result<(), String> {
    let files = &args.positional[1..];
    if files.is_empty() {
        return Err("fuzz replay wants one or more .emxfuzz files".into());
    }
    let mut digest = emx::stats::Digest128::new();
    let mut mismatches = 0usize;
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let case = emx::fuzz::CaseSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let outcome = emx::fuzz::run_case(&case, false);
        let mut status = "ok";
        if let Some(expect) = &case.expect {
            if expect.verdict != outcome.verdict.as_str() {
                status = "VERDICT MISMATCH";
            } else if expect
                .trace_digest
                .as_ref()
                .is_some_and(|d| *d != outcome.trace_digest)
            {
                status = "DIGEST MISMATCH";
            }
        }
        if status != "ok" {
            mismatches += 1;
        }
        let line = format!(
            "replay {path}: verdict={} digest={} {status}",
            outcome.verdict, outcome.trace_digest
        );
        println!("{line}");
        digest.write_str(&line);
        digest.write_str("\n");
    }
    println!("digest: {}", digest.hex());
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} case(s) diverged from their pinned outcome"
        ));
    }
    Ok(())
}

fn fuzz_shrink(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("fuzz shrink wants a .emxfuzz file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let case = emx::fuzz::CaseSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let before = case.total_ops() + case.roots.len();
    let result = emx::fuzz::shrink(&case, &emx::fuzz::ShrinkOptions::default());
    let mut shrunk = result.case;
    let outcome = emx::fuzz::run_case(&shrunk, false);
    shrunk.expect = Some(emx::fuzz::Expected {
        verdict: outcome.verdict.as_str(),
        trace_digest: Some(outcome.trace_digest),
    });
    let after = shrunk.total_ops() + shrunk.roots.len();
    eprintln!(
        "shrink: verdict={} {} -> {} ops+roots in {} attempts / {} rounds",
        result.verdict, before, after, result.attempts, result.rounds
    );
    match args.get("out") {
        Some(out) => {
            let p = std::path::Path::new(out);
            if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(p, shrunk.to_text()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {}", p.display());
        }
        None => print!("{}", shrunk.to_text()),
    }
    Ok(())
}

fn cmd_nullloop(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 4)?;
    let params = NullLoopParams::new(
        args.usize_or("packets", 100)? as u32,
        args.usize_or("threads", 2)?,
    );
    let out = run_null_loop(&cfg, &params).map_err(|e| e.to_string())?;
    println!(
        "null loop: {:.2} overhead cycles per generated packet (paper measures \
         packet-generation overhead exactly this way)",
        out.overhead_per_packet
    );
    print_report(&out.report, args.has("csv"));
    Ok(())
}

fn cmd_latency(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 16)?;
    let readers = args.usize_or("readers", 1)?;
    let reads = args.usize_or("reads", 64)? as i16;
    if readers == 0 || readers >= cfg.num_pes {
        return Err("--readers must be in 1..pes".into());
    }
    let mut m = Machine::new(cfg.clone()).map_err(|e| e.to_string())?;
    let tmpl = m.register_template(emx::isa::kernels::read_loop(reads, 0));
    let target = (cfg.num_pes - 1) as u16;
    for r in 0..readers {
        let addr = GlobalAddr::new(PeId(target), 64).unwrap().pack();
        m.spawn_at_start(PeId(r as u16), tmpl, addr)
            .map_err(|e| e.to_string())?;
    }
    let report = m.run().map_err(|e| e.to_string())?;
    // Round trip = idle waiting plus the suspend/resume switch machinery,
    // which is what the paper's 20-40 clock figure covers.
    let wait: f64 = report.per_pe[..readers]
        .iter()
        .map(|p| (p.breakdown.comm + p.breakdown.switch).get() as f64)
        .sum();
    let per_read = wait / report.total_reads() as f64;
    println!(
        "{} reader(s) on {} PEs: {:.1} cycles/read = {:.2} µs at 20 MHz (paper band: 20-40 cycles)",
        readers,
        cfg.num_pes,
        per_read,
        per_read / 20.0
    );
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("asm wants a source file path")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = assemble(path.clone(), &src).map_err(|e| e.to_string())?;
    let costs = MachineConfig::default().costs;
    println!(
        "; {} instructions, straight-line cost {} cycles",
        prog.len(),
        prog.straight_line_cost(&costs)
    );
    for (i, (ins, word)) in prog.instrs().iter().zip(prog.encode()).enumerate() {
        println!("{i:>4}  {word:08x}  {ins}");
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 80)?;
    let mut t = Table::new(["parameter", "value"]);
    t.row(["processors".to_string(), cfg.num_pes.to_string()]);
    t.row([
        "clock (MHz)".to_string(),
        (cfg.clock_hz / 1_000_000).to_string(),
    ]);
    t.row([
        "memory words/PE".to_string(),
        cfg.local_memory_words.to_string(),
    ]);
    t.row([
        "IBU FIFO capacity".to_string(),
        cfg.ibu_fifo_capacity.to_string(),
    ]);
    t.row(["frames/PE".to_string(), cfg.frames_per_pe.to_string()]);
    t.row([
        "service mode".to_string(),
        format!("{:?}", cfg.service_mode),
    ]);
    t.row([
        "context switch (cy)".to_string(),
        cfg.costs.context_switch.to_string(),
    ]);
    t.row([
        "DMA service (cy)".to_string(),
        cfg.costs.dma_service.to_string(),
    ]);
    t.row([
        "barrier poll interval (cy)".to_string(),
        cfg.costs.barrier_poll_interval.to_string(),
    ]);
    t.row(["network".to_string(), format!("{:?}", cfg.net.model)]);
    print!("{}", t.render());
    Ok(())
}

const USAGE: &str = "usage: emx-cli <run|sort|fft|trace|metrics|profile|profile-diff|bench-diff|sweep|faults|resume|cache|fuzz|nullloop|latency|asm|info> [options]";

/// Every `--flag` some subcommand reads; anything else is a usage error.
const KNOWN_FLAGS: [&str; 46] = [
    "backoff-cap",
    "baseline-dir",
    "block",
    "cases",
    "check",
    "check-invariants",
    "comm-only",
    "csv",
    "delay",
    "dir",
    "dist",
    "dry-run",
    "dup",
    "em4",
    "events",
    "format",
    "hostprof",
    "jobs",
    "journal",
    "json",
    "kill-after",
    "loss",
    "max-attempts",
    "max-delay",
    "memory-words",
    "n",
    "net",
    "no-cache",
    "out",
    "packets",
    "perturb",
    "pes",
    "preset",
    "priority-responses",
    "progress",
    "readers",
    "reads",
    "seed",
    "shrink-failures",
    "sizes",
    "threads",
    "threshold",
    "timeout",
    "wall-threshold",
    "watchdog-ms",
    "workload",
];

/// Usage-shape validation (exit 2): every flag must be one some subcommand
/// reads, and the command and its subcommand / required positionals must
/// exist before any work starts.
fn validate_shape(cmd: &str, args: &Args) -> Result<(), String> {
    if let Some((flag, _)) = args
        .flags
        .iter()
        .find(|(f, _)| !KNOWN_FLAGS.contains(&f.as_str()))
    {
        return Err(format!("unknown flag --{flag}"));
    }
    match cmd {
        "fuzz" => match args.positional.first().map(String::as_str) {
            Some("run" | "replay" | "shrink") => Ok(()),
            _ => Err("fuzz wants a subcommand: run | replay | shrink".into()),
        },
        "cache" => match args.positional.first().map(String::as_str) {
            Some("gc") => Ok(()),
            _ => Err("cache wants a subcommand: gc".into()),
        },
        "resume" if args.positional.is_empty() => Err("resume wants a journal file".into()),
        "bench-diff" if args.positional.is_empty() => {
            Err("bench-diff wants <BENCH.json> [<baseline.json>]".into())
        }
        "asm" if args.positional.is_empty() => Err("asm wants a source file path".into()),
        _ => Ok(()),
    }
}

/// Argument-value validation (exit 4): flags whose value has a closed
/// syntax are checked up front, so a typo fails fast with a distinct
/// exit code instead of surfacing mid-run as a generic error.
fn validate_values(cmd: &str, args: &Args) -> Result<(), String> {
    if let Some(net) = args.get("net") {
        parse_net(net).map_err(|e| format!("bad value for --net: {e}"))?;
    }
    if let Some(preset) = args.get("preset") {
        parse_preset(preset).map_err(|e| format!("bad value for --preset: {e}"))?;
    }
    if let Some(w) = args.get("workload") {
        Workload::parse(w).ok_or(format!(
            "bad value for --workload: unknown workload {w:?} (sort|fft|bfs|histogram|spmv|stencil)"
        ))?;
    }
    if cmd == "run" {
        if let Some(w) = args.positional.first() {
            Workload::parse(w).ok_or(format!(
                "bad workload {w:?} (sort|fft|bfs|histogram|spmv|stencil)"
            ))?;
        }
    }
    for flag in [
        "kill-after",
        "watchdog-ms",
        "threshold",
        "wall-threshold",
        "progress",
    ] {
        if let Some(v) = args.get(flag) {
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --{flag}: {v:?} is not a number"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args::parse(&raw[1..]);
    if let Err(msg) = validate_shape(&cmd, &args) {
        eprintln!("emx-cli: {msg}");
        return ExitCode::from(2);
    }
    if let Err(msg) = validate_values(&cmd, &args) {
        eprintln!("emx-cli: {msg}");
        return ExitCode::from(4);
    }
    if cmd == "profile-diff" {
        return cmd_profile_diff(&args);
    }
    if cmd == "bench-diff" {
        return cmd_bench_diff(&args);
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "sort" => cmd_sort(&args),
        "fft" => cmd_fft(&args),
        "trace" => cmd_trace(&args),
        "metrics" => cmd_metrics(&args),
        "profile" => cmd_profile(&args),
        "sweep" => cmd_sweep(&args),
        "faults" => cmd_faults(&args),
        "resume" => cmd_resume(&args),
        "cache" => cmd_cache(&args),
        "fuzz" => cmd_fuzz(&args),
        "nullloop" => cmd_nullloop(&args),
        "latency" => cmd_latency(&args),
        "asm" => cmd_asm(&args),
        "info" => cmd_info(&args),
        other => {
            eprintln!("emx-cli: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("emx-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::KNOWN_FLAGS;

    #[test]
    fn known_flags_cover_every_flag_read() {
        let src = include_str!("emx-cli.rs");
        for pat in ["args.get(\"", "args.has(\"", "usize_or(\"", "u64_or(\""] {
            for chunk in src.split(pat).skip(1) {
                let name = &chunk[..chunk.find('"').unwrap()];
                assert!(
                    KNOWN_FLAGS.contains(&name),
                    "--{name} missing from KNOWN_FLAGS"
                );
            }
        }
    }
}
