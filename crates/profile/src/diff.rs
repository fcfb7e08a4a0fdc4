//! The `emx-profile/1` schema of the drift gate behind
//! `emx-cli profile-diff` (the engine is [`emx_stats::drift`]).
//!
//! The comparison is deliberately narrow — it checks the handful of
//! numbers that constitute the profile's *conclusion*, not every bucket:
//!
//! * the machine-level attribution shares (busy/switch/wait/idle ppm),
//! * the dominant remote-read stall phase,
//! * the critical path's share of the makespan,
//! * the run length itself (relative, in ppm of the longer run).
//!
//! Shares are already ppm, so their delta is the absolute difference in
//! ppm points. A shift beyond the threshold in any of these means the
//! performance *story* changed — time moved between classes, the
//! bottleneck moved, or the run got meaningfully longer — and that is
//! what a baseline gate should catch. Bucket-level churn below that bar
//! is noise.

use emx_stats::drift::{ppm, DriftReport, Verdict};

use crate::report::{ParsedProfile, CLASS_NAMES};

/// Default drift threshold: 20 000 ppm = 2 percentage points.
pub const DEFAULT_THRESHOLD_PPM: u64 = 20_000;

/// Compare profile `a` against baseline `b` under a drift threshold in
/// ppm. Equal digests are identical; otherwise the digest change itself
/// is a warning and the conclusion-level numbers decide drift.
pub fn diff_profiles(a: &ParsedProfile, b: &ParsedProfile, threshold_ppm: u64) -> DriftReport {
    let mut r = DriftReport::new(
        "profile-diff: attribution shares, critical path, elapsed, dominant phase",
        threshold_ppm,
    );
    if a.digest == b.digest {
        return r;
    }
    r.push("digest", &a.digest, &b.digest, None, Verdict::Warn);
    for (i, name) in CLASS_NAMES.iter().enumerate() {
        let (x, y) = (a.shares_ppm[i], b.shares_ppm[i]);
        r.num(format!("share {name}"), x, y, x.abs_diff(y));
    }
    let (x, y) = (a.crit_share_ppm, b.crit_share_ppm);
    r.num("critical-path share", x, y, x.abs_diff(y));
    let (x, y) = (a.elapsed, b.elapsed);
    r.num("elapsed", x, y, ppm(x.abs_diff(y), x.max(y)));
    r.text("dominant stall phase", &a.dominant, &b.dominant);
    r.text("PEs", &a.pes.to_string(), &b.pes.to_string());
    r
}
