//! # emx-perfbench
//!
//! Host-performance benchmark of the EM-X simulator. One process executes
//! one workload once through the public `emx` API, checks every output,
//! and prints one JSON line: the end-to-end metrics of an untraced
//! execution, or the per-layer metrics of a traced one. `run.py` repeats
//! and aggregates them (see `README.md` beside this crate).
//!
//! Two binaries share this library. `perfbench` uses the system allocator
//! and measures end to end. `perfbench-traced` installs the counting
//! allocator, turns the `emx::hostprof` gate on, attaches a bench probe
//! and replays what it recorded through single layers.

use std::path::PathBuf;

pub mod calib;
pub mod json;
pub mod probe;
pub mod sweepmix;
pub mod traced;
pub mod workload;

use json::Obj;
use workload::{Rep, Size, Workload};

/// Pinned digests of the calibrated default seeds, by workload and size.
const PINS: &str = include_str!("../pins.txt");

/// Parsed command line of either binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed; `None` (`--seed 0`, the default) keeps each
    /// kernel's calibrated seed, whose digests are pinned.
    pub seed: Option<u64>,
    /// Problem scale.
    pub size: Size,
    /// Directory for sweep caches and journals.
    pub workdir: PathBuf,
    /// Flip every pinned digest, to prove a mismatch is counted.
    pub corrupt_pins: bool,
    /// Digests an untraced run of the same seed produced, for the traced
    /// run's determinism check at an unpinned seed.
    pub expect: Vec<(String, String)>,
    /// Median untraced wall seconds, for `trace.overhead_frac`.
    pub untraced_wall_s: Option<f64>,
    /// Median untraced (wall − set-up) seconds, for `runtime.ns_per_event`.
    pub untraced_busy_s: Option<f64>,
}

impl Args {
    /// Parse `std::env::args`.
    pub fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: Workload::Bitonic,
            seed: None,
            size: Size::Full,
            workdir: PathBuf::from("perfbench-work"),
            corrupt_pins: false,
            expect: Vec::new(),
            untraced_wall_s: None,
            untraced_busy_s: None,
        };
        let mut workload = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--corrupt-pins" {
                a.corrupt_pins = true;
                continue;
            }
            let v = it.next().ok_or(format!("{flag} wants a value"))?;
            let num = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| format!("{flag}: bad number {v:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?)
                }
                "--seed" => {
                    let s: u64 = v.parse().map_err(|_| format!("--seed: bad seed {v:?}"))?;
                    a.seed = (s != 0).then_some(s);
                }
                "--size" => {
                    a.size = match v.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("unknown size {v:?} (full|tiny)")),
                    }
                }
                "--workdir" => a.workdir = PathBuf::from(v),
                "--expect" => {
                    let (k, d) = v.split_once('=').ok_or("--expect wants name=digest")?;
                    a.expect.push((k.to_string(), d.to_string()));
                }
                "--untraced-wall" => a.untraced_wall_s = Some(num(&v)?),
                "--untraced-busy" => a.untraced_busy_s = Some(num(&v)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        a.workload = workload.ok_or("--workload is required")?;
        Ok(a)
    }

    /// The digests each execution must reproduce: the pins at the pinned
    /// seed; otherwise only the seed-independent failure set is pinned and
    /// the rest comes from `--expect`, or from the first repetition.
    pub fn reference(&self) -> Vec<(String, String)> {
        let mut r: Vec<(String, String)> = PINS
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 4 && f[0] == self.workload.name() && f[1] == self.size.name())
                    .then(|| (f[2].to_string(), f[3].to_string()))
            })
            .filter(|(k, _)| self.seed.is_none() || k == "failures")
            .collect();
        if self.corrupt_pins {
            for (_, v) in &mut r {
                v.insert(0, 'x');
            }
        }
        for (k, v) in &self.expect {
            if !r.iter().any(|(rk, _)| rk == k) {
                r.push((k.clone(), v.clone()));
            }
        }
        r
    }
}

/// The outcome of checking one execution against the reference digests.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Failed operations, for `error_rate`: the execution's own
    /// failures plus every digest that differs from its reference.
    pub failed: u64,
    /// Of those, the ones not expected: `failed` minus the pinned failure
    /// set when the execution reproduced exactly that set.
    pub unexpected: u64,
    /// Names of the digests that differed.
    pub mismatches: Vec<String>,
}

/// Check one execution. Digests with no reference yet are adopted, so the
/// first repetition becomes the reference of the rest.
pub fn check(rep: &Rep, reference: &mut Vec<(String, String)>) -> Check {
    let mut c = Check::default();
    let mut expected = 0;
    for (k, v) in &rep.digests {
        match reference.iter().find(|(rk, _)| rk == k) {
            None => reference.push((k.to_string(), v.clone())),
            Some((_, rv)) if rv == v => {
                if *k == "failures" && !v.is_empty() {
                    expected = v.split(',').count() as u64;
                }
            }
            Some(_) => c.mismatches.push(k.to_string()),
        }
    }
    // A reference digest the execution did not produce at all (it failed
    // before producing it) is a mismatch too.
    for (k, _) in reference.iter() {
        if !rep.digests.iter().any(|(rk, _)| rk == k) && !c.mismatches.contains(k) {
            c.mismatches.push(k.clone());
        }
    }
    c.failed = (rep.failed + c.mismatches.len() as u64).min(rep.attempted);
    c.unexpected = c.failed.saturating_sub(expected);
    c
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Common head of both binaries' records.
pub fn record_head(args: &Args, mode: &str) -> Obj {
    let mut r = Obj::new();
    r.str("workload", args.workload.name());
    r.str("mode", mode);
    r.str("size", args.size.name());
    r.num("seed", args.seed.unwrap_or(0) as f64);
    r.bool("pinned_seed", args.seed.is_none());
    r.num("host_threads", sweepmix::jobs() as f64);
    r
}

/// Print the result line both binaries end with.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: Obj, record: Obj) {
    let mut o = Obj::new();
    o.bool("correct", correct);
    o.num("attempted", attempted as f64);
    o.num("failed", failed as f64);
    o.obj("metrics", metrics);
    o.obj("record", record);
    println!("{}", o.render());
}

/// Entry point of the untraced binary: one timed execution of the
/// workload. `run.py` repeats it in fresh processes, so every execution
/// starts from the same allocator state and `peak_rss_mb` is the peak of a
/// process that ran the workload once.
pub fn untraced_main() {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        calib::main();
        return;
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut reference = args.reference();
    let rep = workload::run_once(args.workload, args.size, args.seed, &args.workdir);
    let peak = peak_rss_mb();
    let c = check(&rep, &mut reference);
    if !c.mismatches.is_empty() {
        eprintln!("perfbench: digest mismatch: {:?}", c.mismatches);
    }
    let mut m = Obj::new();
    m.metric("wall_s", rep.wall_s, "s");
    m.metric("setup_s", rep.setup_s, "s");
    let busy = rep.wall_s - rep.setup_s;
    m.metric(
        "sim_mcycles_per_s",
        ratio(rep.sim_cycles as f64 / 1e6, busy),
        "Mcycles/s",
    );
    m.metric("peak_rss_mb", peak, "MiB");

    let mut rec = record_head(&args, "untraced");
    rec.num("sim_cycles", rep.sim_cycles as f64);
    rec.num("busy_s", busy);
    rec.num("failed_ops", c.failed as f64);
    let mut d = Obj::new();
    for (k, v) in &reference {
        d.str(k, v);
    }
    rec.obj("digests", d);
    emit(c.unexpected == 0, rep.attempted, c.unexpected, m, rec);
}
