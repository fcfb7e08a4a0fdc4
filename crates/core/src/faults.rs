//! Deterministic fault-injection specification.
//!
//! The paper's EM-X assumes a lossless, non-overtaking network and bounded
//! on-chip FIFOs that spill to memory (§2.2–§2.3). [`FaultSpec`] makes those
//! assumptions *experimental knobs*: it describes, as plain data, which
//! faults a run injects — packet drop/duplicate/delay at network injection,
//! forced IBU spills, DMA stalls, and frame-table exhaustion on chosen
//! processors — plus the remote-read retry protocol that lets workloads
//! complete under loss.
//!
//! Everything is integer-valued (probabilities in parts-per-million) so a
//! spec is `Eq`/hashable and participates in sweep cache keys exactly like
//! every other knob; its one text form (`Display`/`FromStr`) is what cache
//! keys, journals, sidecars and fuzz cases record. The spec carries a seed;
//! fault *decisions* are made by the seeded generators in the `emx-faults`
//! crate, never by wall-clock or ambient randomness, so a run with a given
//! spec is exactly reproducible.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::codec::{self, none_or, num, opt};
use crate::error::SimError;

/// One million: the denominator of every `*_ppm` probability field.
pub const PPM_SCALE: u32 = 1_000_000;

/// A deterministic fault-injection plan for one run.
///
/// All probabilities are in parts-per-million of [`PPM_SCALE`]; a field of
/// `0` disables that fault entirely. The default spec injects nothing and
/// arms the retry protocol with calibrated timeouts (a remote-read round
/// trip is 20–40 cycles, paper §2.3, so the base timeout comfortably
/// exceeds it).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed for every fault-decision stream derived from this spec.
    pub seed: u64,
    /// Probability (ppm) that a data-plane packet is dropped at injection.
    pub drop_ppm: u32,
    /// Probability (ppm) that a data-plane packet is duplicated at
    /// injection (both copies traverse the network).
    pub dup_ppm: u32,
    /// Probability (ppm) that a packet's arrival is delayed.
    pub delay_ppm: u32,
    /// Maximum extra delay in cycles (uniform in `1..=max_delay`); must be
    /// positive when `delay_ppm > 0`.
    pub max_delay: u32,
    /// Probability (ppm) that an enqueued packet is forced to spill to the
    /// on-memory buffer even when the on-chip FIFO has room.
    pub spill_ppm: u32,
    /// Probability (ppm) that the by-pass DMA stalls before servicing a
    /// remote access.
    pub dma_stall_ppm: u32,
    /// Stall length in cycles; must be positive when `dma_stall_ppm > 0`.
    pub dma_stall_cycles: u32,
    /// Cap the frame table of the targeted processors to this many frames
    /// (exhaustion then surfaces as [`SimError::OutOfFrames`]).
    pub frame_cap: Option<u32>,
    /// Processors whose frame table is capped; empty means every processor.
    pub frame_cap_pes: Vec<u16>,
    /// Base remote-read retry timeout in cycles; `0` disables the retry
    /// protocol (a dropped read response then deadlocks, as on the real
    /// machine).
    pub retry_timeout: u32,
    /// Upper bound on the exponential backoff between retries, in cycles.
    pub retry_backoff_cap: u32,
    /// Give up a read after this many re-issues and fail the run with
    /// [`SimError::RetryExhausted`]; `0` retries forever.
    pub max_attempts: u32,
    /// Run the invariant checker (packet conservation, per-pair
    /// non-overtaking, FIFO order within priority, monotonic event time)
    /// and fail with [`SimError::InvariantViolation`] on a violation.
    pub check_invariants: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::new(0)
    }
}

impl FaultSpec {
    /// A spec that injects nothing, with the retry protocol armed at
    /// calibrated timeouts and invariant checking off.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            max_delay: 0,
            spill_ppm: 0,
            dma_stall_ppm: 0,
            dma_stall_cycles: 0,
            frame_cap: None,
            frame_cap_pes: Vec::new(),
            retry_timeout: 128,
            retry_backoff_cap: 4096,
            max_attempts: 0,
            check_invariants: false,
        }
    }

    /// A spec that drops data-plane packets with probability `drop_ppm`.
    pub fn with_loss(seed: u64, drop_ppm: u32) -> FaultSpec {
        FaultSpec {
            drop_ppm,
            ..FaultSpec::new(seed)
        }
    }

    /// Whether this spec can change a run at all: no fault has a non-zero
    /// probability, no frame table is capped, and invariant checking is
    /// off. (The retry fields alone are inert — with nothing dropped, no
    /// retry ever fires.)
    pub fn is_noop(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.delay_ppm == 0
            && self.spill_ppm == 0
            && self.dma_stall_ppm == 0
            && self.frame_cap.is_none()
            && !self.check_invariants
    }

    /// Whether any network-level fault (drop/duplicate/delay) is enabled.
    pub fn any_net_faults(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0
    }

    /// Whether the remote-read retry protocol is armed.
    pub fn retry_enabled(&self) -> bool {
        self.retry_timeout > 0
    }

    /// Whether `pe`'s frame table is capped, and to how many frames.
    pub fn frame_cap_for(&self, pe: usize) -> Option<u32> {
        let cap = self.frame_cap?;
        if self.frame_cap_pes.is_empty() || self.frame_cap_pes.iter().any(|&p| usize::from(p) == pe)
        {
            Some(cap)
        } else {
            None
        }
    }

    /// Validate the spec; returns the reason it cannot be used.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::BadConfig { reason });
        for (name, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("dup_ppm", self.dup_ppm),
            ("delay_ppm", self.delay_ppm),
            ("spill_ppm", self.spill_ppm),
            ("dma_stall_ppm", self.dma_stall_ppm),
        ] {
            if ppm > PPM_SCALE {
                return fail(format!("{name}={ppm} exceeds {PPM_SCALE} (100%)"));
            }
        }
        if self.drop_ppm == PPM_SCALE {
            return fail("drop_ppm of 100% can never converge".into());
        }
        if self.delay_ppm > 0 && self.max_delay == 0 {
            return fail("delay_ppm > 0 requires max_delay > 0".into());
        }
        if self.dma_stall_ppm > 0 && self.dma_stall_cycles == 0 {
            return fail("dma_stall_ppm > 0 requires dma_stall_cycles > 0".into());
        }
        if self.frame_cap == Some(0) {
            return fail("frame_cap must leave at least one frame".into());
        }
        if (self.drop_ppm > 0 || self.dup_ppm > 0) && self.retry_enabled() {
            // Retry re-issues must eventually outlast the backoff cap.
            if self.retry_backoff_cap < self.retry_timeout {
                return fail("retry_backoff_cap below retry_timeout".into());
            }
        }
        Ok(())
    }
}

/// The text form is one comma-separated word naming every field once:
/// `seed:S,drop:P,dup:P,delay:P,max_delay:C,spill:P,dma:P,dma_cycles:C,`
/// `cap:<none|N>,cap_pes:<-|PE+PE+…>,retry:C,backoff:C,attempts:N,check:B`.
/// It has no spaces, so it fits in one token of a journal spec line.
impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pes: Vec<String> = self.frame_cap_pes.iter().map(u16::to_string).collect();
        write!(
            f,
            "seed:{},drop:{},dup:{},delay:{},max_delay:{},spill:{},dma:{},dma_cycles:{},cap:{},\
             cap_pes:{},retry:{},backoff:{},attempts:{},check:{}",
            self.seed,
            self.drop_ppm,
            self.dup_ppm,
            self.delay_ppm,
            self.max_delay,
            self.spill_ppm,
            self.dma_stall_ppm,
            self.dma_stall_cycles,
            none_or(self.frame_cap),
            if pes.is_empty() {
                "-".into()
            } else {
                pes.join("+")
            },
            self.retry_timeout,
            self.retry_backoff_cap,
            self.max_attempts,
            self.check_invariants
        )
    }
}

/// Strict inverse of `Display`: every field exactly once, in any order.
impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSpec, String> {
        let [seed, drop, dup, delay, max_delay, spill, dma, dma_cycles, cap, cap_pes, retry, backoff, attempts, check] =
            codec::fields(
                s.split(','),
                ':',
                "seed drop dup delay max_delay spill dma dma_cycles cap cap_pes retry backoff \
                 attempts check",
            )?;
        Ok(FaultSpec {
            seed: num("seed", seed)?,
            drop_ppm: num("drop", drop)?,
            dup_ppm: num("dup", dup)?,
            delay_ppm: num("delay", delay)?,
            max_delay: num("max_delay", max_delay)?,
            spill_ppm: num("spill", spill)?,
            dma_stall_ppm: num("dma", dma)?,
            dma_stall_cycles: num("dma_cycles", dma_cycles)?,
            frame_cap: opt("cap", cap)?,
            frame_cap_pes: match cap_pes {
                "-" => Vec::new(),
                list => list
                    .split('+')
                    .map(|pe| num("cap_pes", pe))
                    .collect::<Result<_, _>>()?,
            },
            retry_timeout: num("retry", retry)?,
            retry_backoff_cap: num("backoff", backoff)?,
            max_attempts: num("attempts", attempts)?,
            check_invariants: num("check", check)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop_and_valid() {
        let f = FaultSpec::new(7);
        assert!(f.is_noop());
        assert!(!f.any_net_faults());
        assert!(f.retry_enabled());
        f.validate().unwrap();
    }

    #[test]
    fn loss_spec_has_net_faults() {
        let f = FaultSpec::with_loss(1, 10_000);
        assert!(!f.is_noop());
        assert!(f.any_net_faults());
        f.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut f = FaultSpec::new(0);
        f.drop_ppm = PPM_SCALE + 1;
        assert!(f.validate().is_err());

        let mut f = FaultSpec::new(0);
        f.drop_ppm = PPM_SCALE;
        assert!(f.validate().is_err(), "certain loss can never converge");

        let mut f = FaultSpec::new(0);
        f.delay_ppm = 1;
        assert!(f.validate().is_err(), "delay needs max_delay");
        f.max_delay = 8;
        f.validate().unwrap();

        let mut f = FaultSpec::new(0);
        f.dma_stall_ppm = 1;
        assert!(f.validate().is_err(), "stall needs a length");
        f.dma_stall_cycles = 4;
        f.validate().unwrap();

        let mut f = FaultSpec::new(0);
        f.frame_cap = Some(0);
        assert!(f.validate().is_err());

        let mut f = FaultSpec::with_loss(0, 1000);
        f.retry_backoff_cap = f.retry_timeout - 1;
        assert!(f.validate().is_err());
    }

    #[test]
    fn frame_cap_targets_chosen_pes() {
        let mut f = FaultSpec::new(0);
        assert_eq!(f.frame_cap_for(3), None);
        f.frame_cap = Some(2);
        assert_eq!(f.frame_cap_for(3), Some(2));
        f.frame_cap_pes = vec![1, 4];
        assert_eq!(f.frame_cap_for(1), Some(2));
        assert_eq!(f.frame_cap_for(3), None);
        assert!(!f.is_noop());
    }

    #[test]
    fn text_form_rejects_repeated_missing_unknown_and_out_of_range_fields() {
        let mut f = FaultSpec::with_loss(7, 1000);
        f.frame_cap = Some(3);
        f.frame_cap_pes = vec![0, 2];
        let text = f.to_string();
        assert_eq!(
            text,
            "seed:7,drop:1000,dup:0,delay:0,max_delay:0,spill:0,dma:0,dma_cycles:0,cap:3,\
             cap_pes:0+2,retry:128,backoff:4096,attempts:0,check:false"
        );
        let err = |t: &str| t.parse::<FaultSpec>().unwrap_err();
        assert_eq!(
            err(&text.replace("dup:0", "drop:0")),
            "duplicate field \"drop\""
        );
        assert_eq!(
            err(&text.replace(",check:false", "")),
            "missing field \"check\""
        );
        assert_eq!(err(&format!("{text},shards:1")), "unknown field \"shards\"");
        // 2^32 used to be truncated to 0 by the fuzz-case parser.
        assert_eq!(
            err(&text.replace("drop:1000", "drop:4294967296")),
            "drop \"4294967296\" is not a u32"
        );
        assert!(text
            .replace("cap_pes:0+2", "cap_pes:65536")
            .parse::<FaultSpec>()
            .is_err());
        assert!(text
            .replace("cap_pes:0+2", "cap_pes:")
            .parse::<FaultSpec>()
            .is_err());
    }

    #[test]
    fn canonical_covers_every_field() {
        let base = FaultSpec::new(1);
        let c0 = base.to_string();
        for mutate in [
            |f: &mut FaultSpec| f.seed = 2,
            |f: &mut FaultSpec| f.drop_ppm = 1,
            |f: &mut FaultSpec| f.dup_ppm = 1,
            |f: &mut FaultSpec| f.delay_ppm = 1,
            |f: &mut FaultSpec| f.max_delay = 1,
            |f: &mut FaultSpec| f.spill_ppm = 1,
            |f: &mut FaultSpec| f.dma_stall_ppm = 1,
            |f: &mut FaultSpec| f.dma_stall_cycles = 1,
            |f: &mut FaultSpec| f.frame_cap = Some(9),
            |f: &mut FaultSpec| f.frame_cap_pes = vec![5],
            |f: &mut FaultSpec| f.retry_timeout = 99,
            |f: &mut FaultSpec| f.retry_backoff_cap = 9999,
            |f: &mut FaultSpec| f.max_attempts = 3,
            |f: &mut FaultSpec| f.check_invariants = true,
        ] {
            let mut f = base.clone();
            mutate(&mut f);
            assert_ne!(c0, f.to_string(), "the text form missed a field: {f:?}");
            assert_eq!(f.to_string().parse::<FaultSpec>(), Ok(f));
        }
    }
}
