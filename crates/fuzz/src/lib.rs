//! Deterministic fuzzing campaign for the EM-X simulator.
//!
//! This crate closes the loop on the repo's determinism story: instead of
//! trusting a handful of hand-written workloads, it generates *random*
//! EM-X programs — thread graphs mixing remote reads and writes, block
//! reads, spawns, sequence-cell sync, and barriers — crosses them with a
//! seeded lattice of machine shapes and fault plans, and holds every run
//! to a three-way oracle:
//!
//! 1. the **invariant checker** (always armed),
//! 2. **replay-digest equality** — the identical configuration rerun must
//!    reproduce the trace digest byte for byte, and
//! 3. **checkpoint transparency** — snapshot mid-run, restore into a
//!    fresh shell, finish: the stitched fingerprint must match the
//!    uninterrupted reference.
//!
//! Cases are constructed to terminate under fuel *by design* (see
//! [`case::CaseSpec::validate`]), so a deadlock, livelock, or digest
//! mismatch is always a real finding. Failing cases are minimized by a
//! deterministic [shrinker](shrink::shrink) and serialized as
//! self-contained `.emxfuzz` files (format `emx-fuzz/1`) that replay in a
//! committed regression corpus.
//!
//! Everything is seeded: the same `(cases, seed)` campaign produces a
//! byte-identical summary ending in the canonical `digest:` line.
//!
//! See `docs/FUZZING.md` for the case-file format, the well-formedness
//! rules, and the corpus workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod case;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use campaign::{case_seed, run_campaign, CampaignFailure, CampaignOptions, CampaignSummary};
pub use case::{CaseSpec, Expected, Op, ProgramSpec, Root};
pub use gen::generate;
pub use oracle::{error_kind, run_case, CaseOutcome, Fingerprint, Verdict};
pub use shrink::{shrink, ShrinkOptions, ShrinkResult};
