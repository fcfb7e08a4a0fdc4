//! The drift gate behind `emx-cli profile-diff` and `bench-diff`.
//!
//! A report schema lists the fields it gates and feeds each pair of
//! values (current, baseline) to a [`DriftReport`]; the gate classifies
//! every difference, keeps the worst [`Verdict`], and renders one line
//! per differing field. The schemas differ only in their field lists and
//! in how they measure a numeric delta (absolute ppm points for profile
//! shares, [`ppm`] of the baseline for bench counters); the
//! classification, the rounding rule and the rendering live here once.
//!
//! The CLI maps [`Verdict::Drift`] to exit code 3.

/// How far a comparison — or one compared field — moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Nothing differs.
    Identical,
    /// Differences within the gate's threshold, or an annotation past its
    /// warn threshold: reported, but the gate passes.
    Warn,
    /// A gated field moved past the threshold, or the reports no longer
    /// line up (a missing field or point, a changed label): the gate
    /// fails.
    Drift,
}

/// One compared field that differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftEntry {
    /// What was compared, e.g. `share busy` or `fft p=16 h=1 r=256 :: cycles`.
    pub what: String,
    /// The current value, rendered.
    pub current: String,
    /// The baseline value, rendered.
    pub baseline: String,
    /// The numeric delta in ppm, or `None` for a label or presence change.
    pub delta_ppm: Option<u64>,
    /// How this entry alone classifies.
    pub verdict: Verdict,
}

/// `delta` in parts-per-million of `of`, rounded *up*, so any nonzero
/// delta is at least 1 ppm: a single-count drift on a large counter must
/// not round down to 0 and slip past an exact (0 ppm) threshold.
/// Saturates at `u64::MAX`; `of` is clamped to at least 1.
pub fn ppm(delta: u64, of: u64) -> u64 {
    let scaled = u128::from(delta) * 1_000_000;
    u64::try_from(scaled.div_ceil(u128::from(of.max(1)))).unwrap_or(u64::MAX)
}

/// The result of comparing one report against its baseline.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// First rendered line, written by the schema (what was compared).
    pub header: String,
    /// The hard threshold applied to gated numbers, ppm.
    pub threshold_ppm: u64,
    /// Every differing field, in comparison order.
    pub entries: Vec<DriftEntry>,
}

impl DriftReport {
    /// An empty comparison under `threshold_ppm`.
    pub fn new(header: impl Into<String>, threshold_ppm: u64) -> Self {
        DriftReport {
            header: header.into(),
            threshold_ppm,
            entries: Vec::new(),
        }
    }

    /// The worst entry's verdict; [`Verdict::Identical`] when none.
    pub fn verdict(&self) -> Verdict {
        self.entries
            .iter()
            .map(|e| e.verdict)
            .max()
            .unwrap_or(Verdict::Identical)
    }

    /// Record an entry as given.
    pub fn push(
        &mut self,
        what: impl Into<String>,
        current: impl ToString,
        baseline: impl ToString,
        delta_ppm: Option<u64>,
        verdict: Verdict,
    ) {
        self.entries.push(DriftEntry {
            what: what.into(),
            current: current.to_string(),
            baseline: baseline.to_string(),
            delta_ppm,
            verdict,
        });
    }

    /// A gated number: silent when equal, drift past the threshold,
    /// otherwise a warning.
    pub fn num(&mut self, what: impl Into<String>, current: u64, baseline: u64, delta_ppm: u64) {
        if current == baseline {
            return;
        }
        let verdict = if delta_ppm > self.threshold_ppm {
            Verdict::Drift
        } else {
            Verdict::Warn
        };
        self.push(what, current, baseline, Some(delta_ppm), verdict);
    }

    /// An annotation (host wall time and the like): a warning past
    /// `warn_ppm`, silent otherwise. Never drift.
    pub fn annotation(
        &mut self,
        what: impl Into<String>,
        current: u64,
        baseline: u64,
        delta_ppm: u64,
        warn_ppm: u64,
    ) {
        if delta_ppm > warn_ppm {
            self.push(what, current, baseline, Some(delta_ppm), Verdict::Warn);
        }
    }

    /// A gated label (a digest, a schema tag, a phase name): any change
    /// is drift.
    pub fn text(&mut self, what: impl Into<String>, current: &str, baseline: &str) {
        if current != baseline {
            self.push(what, current, baseline, None, Verdict::Drift);
        }
    }

    /// Human-readable rendering: the header, drifts (`!`) then warnings
    /// (`~`), and the verdict line.
    pub fn render(&self) -> String {
        let mut s = format!("{}\n", self.header);
        for class in [Verdict::Drift, Verdict::Warn] {
            for e in self.entries.iter().filter(|e| e.verdict == class) {
                let mark = if class == Verdict::Drift { '!' } else { '~' };
                s.push_str(&format!(
                    "{mark} {}: current={} baseline={}",
                    e.what, e.current, e.baseline
                ));
                if let Some(d) = e.delta_ppm {
                    s.push_str(&format!(" (Δ {d} ppm)"));
                }
                s.push('\n');
            }
        }
        let t = self.threshold_ppm;
        s.push_str(&match self.verdict() {
            Verdict::Identical => "verdict: IDENTICAL\n".to_string(),
            Verdict::Warn => format!("verdict: WITHIN THRESHOLD ({t} ppm)\n"),
            Verdict::Drift => format!("verdict: DRIFT beyond {t} ppm\n"),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_rounds_up_so_one_count_on_a_huge_counter_is_drift() {
        let big = 1_000_000_000;
        assert_eq!(ppm(1, big), 1);
        assert_eq!(ppm(0, big), 0);
        assert_eq!(ppm(5, 0), 5_000_000, "the base is clamped to 1");
        assert_eq!(ppm(u64::MAX, 1), u64::MAX, "saturates");

        let mut r = DriftReport::new("t", 0);
        r.num("calendar.pushes", big + 1, big, ppm(1, big));
        assert_eq!(r.verdict(), Verdict::Drift);
    }

    #[test]
    fn classes_and_rendering() {
        let mut r = DriftReport::new("cmp", 100);
        assert_eq!(r.verdict(), Verdict::Identical);
        r.num("same", 7, 7, 0);
        r.annotation("wall", 11, 10, 100_000, 500_000);
        assert!(r.entries.is_empty(), "equal numbers and quiet annotations");

        r.num("near", 1_000_050, 1_000_000, 50);
        r.annotation("wall", 30, 10, 2_000_000, 500_000);
        assert_eq!(r.verdict(), Verdict::Warn);

        r.text("phase", "service", "resp-queue");
        assert_eq!(r.verdict(), Verdict::Drift);
        assert_eq!(
            r.render(),
            "cmp\n\
             ! phase: current=service baseline=resp-queue\n\
             ~ near: current=1000050 baseline=1000000 (Δ 50 ppm)\n\
             ~ wall: current=30 baseline=10 (Δ 2000000 ppm)\n\
             verdict: DRIFT beyond 100 ppm\n"
        );
    }
}
