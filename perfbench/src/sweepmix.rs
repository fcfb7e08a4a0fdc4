//! The `sweep-mix` workload: the `figures workloads` grid (6 kernels ×
//! {omega, mesh, fattree4} × h ∈ {1,2,4}) at both its quick and standard
//! per-PE sizes on 16 PEs, run cold through a fresh run cache and a
//! journal, then warm from the same cache.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use emx::prelude::*;
use emx::stats::{report_digest, Digest128};
use emx::sweep::{CacheKey, Journal, SweepOutcome, Workload as Kernel};

use crate::workload::{Rep, Size};

/// Processor count of every grid point.
pub const PES: usize = 16;

/// Journal label of both passes.
const LABEL: &str = "perfbench sweep-mix";

/// The grid, in `figures workloads` order within each size: kernel, then
/// network, then h. `seed = None` keeps each kernel's calibrated seed.
pub fn grid(size: Size, seed: Option<u64>) -> Vec<RunSpec> {
    let nets = [
        NetModelKind::CircularOmega,
        NetModelKind::Mesh2D,
        NetModelKind::FatTree { arity: 4 },
    ];
    // (sort, fft, bfs/histogram/stencil, spmv) per-PE sizes of the
    // `figures` quick and standard scales.
    let scales: &[[usize; 4]] = match size {
        Size::Full => &[[256, 256, 64, 32], [512, 512, 128, 64]],
        Size::Tiny => &[[256, 256, 64, 32]],
    };
    let mut specs = Vec::new();
    for sizes in scales {
        for k in Kernel::all() {
            let per_pe = match k {
                Kernel::Sort => sizes[0],
                Kernel::Fft => sizes[1],
                Kernel::Bfs | Kernel::Histogram | Kernel::Stencil => sizes[2],
                Kernel::Spmv => sizes[3],
            };
            for net in nets {
                for h in [1, 2, 4] {
                    let mut s = RunSpec::new(k, PES, per_pe, h);
                    s.net_model = net;
                    s.seed = seed;
                    specs.push(s);
                }
            }
        }
    }
    specs
}

/// Worker count of the sweep engine: two, or fewer on a smaller host.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A fresh, empty directory for one execution's cache and journals.
pub fn fresh_dir(workdir: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = workdir.join(format!("sweep-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    // A leftover from a killed run would turn the cold pass warm.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the sweep work directory");
    dir
}

/// Everything set up before the cold pass starts.
pub struct Setup {
    /// The grid.
    pub specs: Vec<RunSpec>,
    /// Each point's cache key, by index.
    pub keys: Vec<CacheKey>,
    /// The cold pass's journal.
    pub cold: Journal,
    /// The warm pass's journal.
    pub warm: Journal,
    /// Host seconds spent in `Journal::create`.
    pub journal_s: f64,
}

/// Build the grid, its cache keys and both journals.
pub fn setup(size: Size, seed: Option<u64>, dir: &Path) -> Setup {
    let specs = grid(size, seed);
    let keys = specs
        .iter()
        .map(|s| CacheKey::for_run(s, &s.machine_config()))
        .collect();
    let t = Instant::now();
    let journal = |name: &str| {
        Journal::create(dir.join(name), "sweep", LABEL, &specs).expect("create a sweep journal")
    };
    let (cold, warm) = (journal("cold.journal"), journal("warm.journal"));
    Setup {
        cold,
        warm,
        journal_s: t.elapsed().as_secs_f64(),
        specs,
        keys,
    }
}

/// Run one pass through the engine with the cache in `dir`.
pub fn pass(dir: &Path, specs: &[RunSpec], journal: Journal) -> SweepOutcome {
    SweepEngine::new()
        .jobs(jobs())
        .cache(Some(RunCache::new(dir.join("cache"))))
        .journal(journal)
        .quiet(true)
        .run(specs.to_vec())
}

/// Each point's outcome by index: its report, or `None` if the engine
/// gave up on it.
pub fn by_index<'a>(keys: &[CacheKey], out: &'a SweepOutcome) -> Vec<Option<&'a RunReport>> {
    let at: HashMap<&str, usize> = keys.iter().enumerate().map(|(i, k)| (k.hex(), i)).collect();
    let mut slots = vec![None; keys.len()];
    for p in &out.points {
        slots[at[p.key.hex()]] = Some(&p.report);
    }
    slots
}

/// Checks of one cold + warm execution.
pub struct Verdict {
    /// Points that failed: the engine gave up on them, or the warm pass
    /// disagreed with the cold one (different report, or not a cache hit).
    pub failed: u64,
    /// Digest over every successful cold point's index and report digest.
    pub points: String,
    /// Sorted indices of the points the cold pass gave up on.
    pub failures: String,
    /// Simulated cycles of the cold pass.
    pub sim_cycles: u64,
}

/// Compare the warm pass with the cold pass and digest the cold pass.
pub fn verdict(keys: &[CacheKey], cold: &SweepOutcome, warm: &SweepOutcome) -> Verdict {
    let c = by_index(keys, cold);
    let w = by_index(keys, warm);
    let hits: HashMap<&str, bool> = warm
        .points
        .iter()
        .map(|p| (p.key.hex(), p.cached))
        .collect();
    let mut d = Digest128::new();
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut sim_cycles = 0;
    for (i, (cr, wr)) in c.iter().zip(&w).enumerate() {
        match cr {
            None => {
                failures.push(i.to_string());
                failed += 1;
            }
            Some(r) => {
                let rd = report_digest(r);
                d.write_str(&format!("{i} {rd}\n"));
                sim_cycles += r.elapsed.get();
                let warm_ok = wr.is_some_and(|x| report_digest(x) == rd) && hits[keys[i].hex()];
                if !warm_ok {
                    failed += 1;
                }
            }
        }
    }
    Verdict {
        failed,
        points: d.hex(),
        failures: failures.join(","),
        sim_cycles,
    }
}

/// One untraced execution: set-up, cold pass, warm pass, checks.
pub fn run_once(size: Size, seed: Option<u64>, workdir: &Path) -> Rep {
    let dir = fresh_dir(workdir);
    let t0 = Instant::now();
    let s = setup(size, seed, &dir);
    let setup_s = t0.elapsed().as_secs_f64();
    let cold = pass(&dir, &s.specs, s.cold);
    let warm = pass(&dir, &s.specs, s.warm);
    let v = verdict(&s.keys, &cold, &warm);
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(&dir);
    Rep {
        wall_s,
        setup_s,
        sim_cycles: v.sim_cycles,
        attempted: s.specs.len() as u64,
        failed: v.failed,
        digests: vec![("points", v.points), ("failures", v.failures)],
    }
}
