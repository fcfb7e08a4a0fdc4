//! The `emx-bench/2` schema of the drift gate behind `emx-cli bench-diff`
//! (the engine is [`emx_stats::drift`]): two benchmark trajectory files
//! compared point by point.
//!
//! Field classes drive the comparison:
//!
//! * **deterministic** — `cycles`, the run `digest`, the per-point
//!   hostprof digest (a baseline digest the current point lacks is
//!   drift), and every `counters`/`host` counter. Hard-compared
//!   against `threshold_ppm` (default 0: these are byte-deterministic,
//!   any drift is a regression or an intentional change that must
//!   regenerate the baseline).
//! * **annotations** — `wall` section values and `wall_ns`. Compared
//!   against `wall_threshold_ppm` and reported as warnings only; they
//!   never affect the outcome.
//!
//! The CLI maps [`Verdict::Drift`] to exit code 3, like profile drift.

use emx_stats::drift::{ppm, DriftReport, Verdict};

/// Benchmark file schemas `bench-diff` understands.
pub const HOSTPROF_SCHEMAS: [&str; 1] = ["emx-bench/2"];

/// Default hard threshold for deterministic fields: exact match.
pub const DEFAULT_THRESHOLD_PPM: u64 = 0;

/// Default warn threshold for wall-clock annotations: 50%.
pub const DEFAULT_WALL_THRESHOLD_PPM: u64 = 500_000;

/// One benchmark point, already parsed out of the JSON by the caller.
#[derive(Debug, Clone, Default)]
pub struct BenchPoint {
    /// Identity within the file, e.g. `fft p=64 h=4 r=512`.
    pub key: String,
    /// Simulated cycles to completion (deterministic).
    pub cycles: u64,
    /// The run's report digest (deterministic).
    pub digest: String,
    /// The point's `emx-hostprof/1` counters digest, if recorded.
    pub hostprof_digest: Option<String>,
    /// Deterministic counters (`counters` + `host` sections), name→value.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock annotations (`wall` section, `wall_ns`), name→value.
    pub wall: Vec<(String, u64)>,
}

/// A parsed benchmark trajectory file.
#[derive(Debug, Clone, Default)]
pub struct BenchFile {
    /// Schema tag (`emx-bench/2`).
    pub schema: String,
    /// Scale provenance (`quick`/`standard`/`full`).
    pub scale: String,
    /// The points, in file order.
    pub points: Vec<BenchPoint>,
}

/// Compare `current` against `baseline`. Points are matched by `key`;
/// baseline points missing from `current` are hard drift, extra current
/// points are warnings (a grown matrix should regenerate the baseline
/// but must not mask regressions in the overlap). Every numeric delta is
/// [`ppm`] of the baseline value.
pub fn diff_bench(
    current: &BenchFile,
    baseline: &BenchFile,
    threshold_ppm: u64,
    wall_threshold_ppm: u64,
) -> DriftReport {
    let mut r = DriftReport::new(String::new(), threshold_ppm);
    r.text("schema", &current.schema, &baseline.schema);
    r.text("scale", &current.scale, &baseline.scale);

    let (mut compared, mut missing) = (0usize, 0usize);
    for base in &baseline.points {
        let key = &base.key;
        let Some(cur) = current.points.iter().find(|p| p.key == *key) else {
            missing += 1;
            r.push(
                format!("{key} :: point"),
                "<missing>",
                "present",
                None,
                Verdict::Drift,
            );
            continue;
        };
        compared += 1;
        let delta = |c: u64, b: u64| ppm(c.abs_diff(b), b);
        r.num(
            format!("{key} :: cycles"),
            cur.cycles,
            base.cycles,
            delta(cur.cycles, base.cycles),
        );
        r.text(format!("{key} :: digest"), &cur.digest, &base.digest);
        if let Some(b) = &base.hostprof_digest {
            let c = cur.hostprof_digest.as_deref().unwrap_or("<missing>");
            r.text(format!("{key} :: hostprof_digest"), c, b);
        }
        for (name, bval) in &base.counters {
            match cur.counters.iter().find(|(n, _)| n == name) {
                Some(&(_, cval)) => {
                    r.num(format!("{key} :: {name}"), cval, *bval, delta(cval, *bval))
                }
                None => r.push(
                    format!("{key} :: {name}"),
                    "<missing>",
                    bval,
                    None,
                    Verdict::Drift,
                ),
            }
        }
        for (name, bval) in &base.wall {
            if let Some(&(_, cval)) = cur.wall.iter().find(|(n, _)| n == name) {
                let d = delta(cval, *bval);
                r.annotation(
                    format!("{key} :: {name}"),
                    cval,
                    *bval,
                    d,
                    wall_threshold_ppm,
                );
            }
        }
    }
    let mut extra = 0usize;
    for cur in &current.points {
        if !baseline.points.iter().any(|p| p.key == cur.key) {
            extra += 1;
            r.push(
                format!("{} :: point", cur.key),
                "present",
                "<missing>",
                None,
                Verdict::Warn,
            );
        }
    }
    r.header =
        format!("bench-diff: {compared} point(s) compared, {missing} missing, {extra} extra");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: &str, cycles: u64, pushes: u64, wall: u64) -> BenchPoint {
        BenchPoint {
            key: key.into(),
            cycles,
            digest: "d0".repeat(16),
            hostprof_digest: Some("a1".repeat(16)),
            counters: vec![("calendar.pushes".into(), pushes)],
            wall: vec![("wall_ns".into(), wall)],
        }
    }

    fn file(points: Vec<BenchPoint>) -> BenchFile {
        BenchFile {
            schema: "emx-bench/2".into(),
            scale: "quick".into(),
            points,
        }
    }

    #[test]
    fn identical_files() {
        let a = file(vec![point("fft s=1", 100, 50, 1000)]);
        let r = diff_bench(&a, &a.clone(), 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Identical);
        assert_eq!(
            r.header,
            "bench-diff: 1 point(s) compared, 0 missing, 0 extra"
        );
        assert!(r.entries.is_empty());
    }

    #[test]
    fn counter_drift_is_hard() {
        let base = file(vec![point("fft s=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft s=1", 100, 51, 1000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
        assert!(r.render().contains("! fft s=1 :: calendar.pushes"));
    }

    #[test]
    fn wall_drift_is_warn_only() {
        let base = file(vec![point("fft s=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft s=1", 100, 50, 9000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
        assert!(r.render().contains("~ fft s=1 :: wall_ns"));
    }

    #[test]
    fn small_wall_drift_is_silent() {
        let base = file(vec![point("fft s=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft s=1", 100, 50, 1100)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Identical);
    }

    #[test]
    fn digest_mismatch_and_missing_point() {
        let base = file(vec![
            point("fft s=1", 100, 50, 1000),
            point("fft s=2", 100, 50, 1000),
        ]);
        let mut cur = file(vec![point("fft s=1", 100, 50, 1000)]);
        cur.points[0].digest = "ff".repeat(16);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
        assert_eq!(
            r.header,
            "bench-diff: 1 point(s) compared, 1 missing, 0 extra"
        );
        assert!(r.render().contains(":: digest"));
    }

    #[test]
    fn cycles_within_nonzero_threshold_is_warn() {
        let base = file(vec![point("fft s=1", 1_000_000, 50, 1000)]);
        let cur = file(vec![point("fft s=1", 1_000_010, 50, 1000)]);
        let r = diff_bench(&cur, &base, 20, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
    }

    #[test]
    fn schema_or_scale_mismatch_is_drift() {
        let base = file(vec![]);
        let mut cur = file(vec![]);
        cur.scale = "standard".into();
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
    }

    #[test]
    fn extra_point_is_warn() {
        let base = file(vec![point("fft s=1", 100, 50, 1000)]);
        let cur = file(vec![
            point("fft s=1", 100, 50, 1000),
            point("fft s=2", 90, 50, 900),
        ]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
        assert_eq!(
            r.header,
            "bench-diff: 1 point(s) compared, 0 missing, 1 extra"
        );
    }

    #[test]
    fn dropped_hostprof_digest_is_drift() {
        let base = file(vec![point("fft s=1", 100, 50, 1000)]);
        let mut cur = base.clone();
        cur.points[0].hostprof_digest = None;
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
        assert!(r
            .render()
            .contains("! fft s=1 :: hostprof_digest: current=<missing>"));
        // A digest only the current file records is new information, not drift.
        let r = diff_bench(&base, &cur, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Identical);
    }
}
