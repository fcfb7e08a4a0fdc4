//! The paper's in-text remote-read latency claim: "The average remote
//! memory latency, when the network is normally loaded, is approximately
//! 1 to 2 µs, or 20-40 clocks."
//!
//! [`remote_read_latency`] measures it with the interpreted ISA read loop
//! ([`kernels::read_loop`]): `readers` PEs each run one thread issuing
//! `reads` split-phase reads of a word on the last PE, so contention at
//! that PE grows with the reader count. Like [`crate::nullloop`], it is a
//! direct probe on one machine, not a sweep point.

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{kernels, Machine};

/// Average round trip per remote read, in cycles: the readers' idle
/// waiting plus suspend/resume switching — the quantity the paper's
/// 20-40 clock band describes — divided by the reads issued.
///
/// Fails with a workload error unless `1 <= readers < cfg.num_pes` (the
/// last PE is the target) and `reads >= 1`.
pub fn remote_read_latency(
    cfg: &MachineConfig,
    readers: usize,
    reads: i16,
) -> Result<f64, SimError> {
    if readers == 0 || readers >= cfg.num_pes || reads < 1 {
        return Err(SimError::Workload {
            reason: format!(
                "latency probe wants 1 <= readers < pes ({}) and reads >= 1, got readers={readers} reads={reads}",
                cfg.num_pes
            ),
        });
    }
    let mut m = Machine::new(cfg.clone())?;
    let tmpl = m.register_template(kernels::read_loop(reads, 0));
    let target = GlobalAddr::new(PeId((cfg.num_pes - 1) as u16), 64)?.pack();
    for r in 0..readers {
        m.spawn_at_start(PeId(r as u16), tmpl, target)?;
    }
    let report = m.run()?;
    let wait: f64 = report.per_pe[..readers]
        .iter()
        .map(|p| (p.breakdown.comm + p.breakdown.switch).get() as f64)
        .sum();
    Ok(wait / report.total_reads() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pes: usize) -> MachineConfig {
        let mut c = MachineConfig::with_pes(pes);
        c.local_memory_words = 1 << 12;
        c
    }

    #[test]
    fn a_lone_reader_sits_in_the_papers_band() {
        let l = remote_read_latency(&cfg(16), 1, 64).unwrap();
        assert!((20.0..=40.0).contains(&l), "measured {l}");
    }

    #[test]
    fn contention_does_not_shorten_the_round_trip() {
        let one = remote_read_latency(&cfg(16), 1, 64).unwrap();
        let eight = remote_read_latency(&cfg(16), 8, 64).unwrap();
        assert!(eight >= one, "{eight} < {one}");
    }

    #[test]
    fn rejects_degenerate_parameters() {
        for (readers, reads) in [(0, 64), (16, 64), (17, 64), (1, 0), (1, -1)] {
            let err = remote_read_latency(&cfg(16), readers, reads).unwrap_err();
            assert!(matches!(err, SimError::Workload { .. }), "{err}");
        }
    }
}
