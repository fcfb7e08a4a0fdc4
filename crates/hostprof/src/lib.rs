//! # emx-hostprof
//!
//! Host-side self-observability for the EM-X simulator — the mirror image
//! of what `emx-profile` does for the *guest* machine. Where emx-profile
//! decomposes simulated cycles into busy/switch/wait/idle, this crate
//! decomposes *host* work: how many calendar operations, events, queue and
//! DMA operations the simulator performed, and where wall-clock time went
//! (sweep worker vs. journal flush).
//!
//! Three counter classes, three report sections (`emx-hostprof/1`):
//!
//! * **`counters`** ([`Sim`]) — semantic simulation work. For an
//!   error-free run these are byte-identical across `--jobs` settings.
//!   The report digest covers *only* this section.
//! * **`host`** ([`Host`]) — deterministic for a fixed host configuration
//!   (sweep points, cache hits, simulated points). Reported,
//!   digest-excluded, hard-compared by `bench-diff` at equal config.
//! * **`wall`** ([`Wall`]) — wall-clock section timers in nanoseconds and
//!   the opt-in counting-allocator totals. Annotations only: digest-
//!   excluded and warn-only in `bench-diff`.
//!
//! Counting is globally gated by an atomic flag ([`set_enabled`]); when
//! disabled every hook is a single relaxed load and branch, so the hot
//! paths stay effectively free. All counters are process-global relaxed
//! atomics: sums are order-independent, which is exactly why the counter
//! section is reproducible at any worker count.
//!
//! See `docs/OBSERVABILITY.md` § "Host profiling" for the schema, the
//! counter glossary, and the `bench-diff` CI workflow.

// `deny` rather than the workspace-usual `forbid`: the counting global
// allocator is the one place that needs `unsafe` (GlobalAlloc), and it
// carries a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod counters;
pub mod diff;
pub mod report;

pub use alloc::{alloc_totals, CountingAlloc};
pub use counters::{
    add, add_host, add_wall, bump, bump_host, count_lane, enabled, now, reset, set_enabled,
    snapshot, wall_since, Host, Sim, Snapshot, Wall, HOST_NAMES, SIM_NAMES, WALL_NAMES,
};
pub use diff::{
    diff_bench, BenchDiffReport, BenchFile, BenchPoint, DiffEntry, DriftKind,
    DEFAULT_THRESHOLD_PPM, DEFAULT_WALL_THRESHOLD_PPM, HOSTPROF_SCHEMAS,
};
pub use report::{HostProfReport, HOSTPROF_SCHEMA};
