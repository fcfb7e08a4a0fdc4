//! Host-side self-observability (`emx-hostprof`) integration tests.
//!
//! The contract under test (see `docs/OBSERVABILITY.md` § "Host
//! profiling"): the deterministic `counters` section is pinned and
//! byte-identical across `--jobs` values for error-free runs, arming the
//! sweep heartbeat never changes sweep results, the counting allocator's
//! totals are monotone, the trace-digest probe never allocates, and a
//! probe-free run allocates almost nothing per calendar event.
//!
//! Counters are process-global, so every test serializes on one lock and
//! leaves the gate disabled on exit.

use std::sync::Mutex;

use emx::core::{FaultKind, FrameId, Probe};
use emx::hostprof;
use emx::prelude::*;
use emx::sweep::{grid, ProgressConfig, SweepEngine, Workload};

/// This test binary opts in to the counting allocator, exercising the
/// same wiring `emx-cli` and `figures` use.
#[global_allocator]
static ALLOC: hostprof::CountingAlloc = hostprof::CountingAlloc::new();

/// Counters are process-global; all tests toggling the gate take this.
static LOCK: Mutex<()> = Mutex::new(());

/// Run one comm-only FFT with profiling armed and return the settled
/// report.
fn profiled_fft() -> hostprof::HostProfReport {
    let mut cfg = MachineConfig::with_pes(64);
    cfg.local_memory_words = 1 << 17;
    hostprof::set_enabled(true);
    hostprof::reset();
    run_fft(&cfg, &FftParams::comm_only(64 * 64, 4)).unwrap();
    let rep = hostprof::HostProfReport::new(Vec::new(), hostprof::snapshot());
    hostprof::set_enabled(false);
    rep
}

#[test]
fn counter_section_is_pinned() {
    // Absolute values: any change to how much work the event loop does —
    // or to where it counts it — moves them.
    let _g = LOCK.lock().unwrap();
    let rep = profiled_fft();
    assert_eq!(
        rep.counters_section(),
        "counters\n  calendar.pushes 231868\n  calendar.pops 231868\n  \
         events.dispatch 91358\n  events.local 41438\n  events.retry 0\n  \
         events.net 99072\n  queue.pushes 91358\n  queue.pops 91358\n  \
         queue.spills 276\n  dma.deposits 0\n  dma.services 49152\n  \
         dma.departs 49920\n  replay.emissions 0\n  replay.routes 99072\n"
    );
    assert_eq!(rep.digest(), "8b82837a204f028795533669acc9d7b3");
}

/// Run a small sweep (cache disabled, so every point simulates) at the
/// given worker count with profiling armed; return the report plus the
/// concatenated canonical report texts of all points.
fn profiled_sweep(jobs: usize, progress: bool) -> (hostprof::HostProfReport, String) {
    hostprof::set_enabled(true);
    hostprof::reset();
    let mut engine = SweepEngine::new().jobs(jobs).cache(None).quiet(true);
    if progress {
        engine = engine.progress(ProgressConfig::every_ms(10));
    }
    let outcome = engine.run(grid(Workload::Sort, 4, &[64, 128], &[1, 2]));
    let rep = hostprof::HostProfReport::new(Vec::new(), hostprof::snapshot());
    hostprof::set_enabled(false);
    let texts: String = outcome
        .points
        .iter()
        .map(|pt| emx::stats::digest::report_canonical_text(&pt.report))
        .collect();
    (rep, texts)
}

#[test]
fn counter_and_host_sections_are_identical_across_jobs() {
    let _g = LOCK.lock().unwrap();
    let (serial, serial_texts) = profiled_sweep(1, false);
    let (parallel, parallel_texts) = profiled_sweep(4, false);
    assert_eq!(serial_texts, parallel_texts);
    assert_eq!(
        serial.counters_section(),
        parallel.counters_section(),
        "counters section diverged across --jobs"
    );
    // Host counters cover sweep structure (points, cache hits, simulated
    // count) — all scheduling-independent, so they match too.
    assert_eq!(serial.snap.host, parallel.snap.host);
    assert_eq!(serial.snap.host[hostprof::Host::SweepPoints as usize], 4);
    assert_eq!(serial.snap.host[hostprof::Host::SweepSimulated as usize], 4);
    assert_eq!(serial.snap.host[hostprof::Host::SweepCacheHits as usize], 0);
}

#[test]
fn heartbeat_does_not_change_sweep_results_or_counters() {
    let _g = LOCK.lock().unwrap();
    let (off, off_texts) = profiled_sweep(2, false);
    let (on, on_texts) = profiled_sweep(2, true);
    assert_eq!(off_texts, on_texts, "heartbeat must not change results");
    assert_eq!(off.counters_section(), on.counters_section());
    assert_eq!(off.snap.host, on.snap.host);
}

#[test]
fn counting_allocator_totals_are_monotone() {
    let _g = LOCK.lock().unwrap();
    hostprof::set_enabled(true);
    hostprof::reset();
    let (a0, b0) = hostprof::alloc_totals();
    // Force real heap traffic that the optimizer cannot elide.
    let v: Vec<String> = (0..512).map(|i| format!("alloc-probe-{i}")).collect();
    assert_eq!(v.len(), 512);
    let (a1, b1) = hostprof::alloc_totals();
    drop(v);
    let (a2, b2) = hostprof::alloc_totals();
    hostprof::set_enabled(false);
    assert!(a1 > a0, "allocation count must grow ({a0} -> {a1})");
    assert!(b1 > b0, "byte count must grow ({b0} -> {b1})");
    // Totals count allocation traffic, not live bytes: frees never
    // decrease them.
    assert!(a2 >= a1);
    assert!(b2 >= b1);
}

#[test]
fn report_digest_ignores_wall_and_meta() {
    let _g = LOCK.lock().unwrap();
    let mut a = profiled_fft();
    let mut b = a.clone();
    b.meta = vec![("jobs".into(), "8".into())];
    b.snap.wall = [9; hostprof::WALL_NAMES.len()];
    b.snap.host = [9; hostprof::HOST_NAMES.len()];
    assert_eq!(a.digest(), b.digest());
    a.snap.sim[hostprof::Sim::CalPops as usize] += 1;
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn digest_probe_does_not_allocate() {
    let pkts = [
        PacketKind::ReadReq,
        PacketKind::ReadBlockReq,
        PacketKind::ReadResp,
        PacketKind::Write,
        PacketKind::Spawn,
        PacketKind::SyncArrive,
        PacketKind::SyncRelease,
    ];
    let causes = [
        SuspendCause::RemoteRead,
        SuspendCause::BlockRead,
        SuspendCause::Barrier,
        SuspendCause::ThreadSync,
        SuspendCause::Yield,
    ];
    let faults = [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay];
    // Every variant, with field values that vary from call to call and
    // reach their type's maximum.
    let kind = |i: usize| {
        let pkt = pkts[i % pkts.len()];
        let pe = PeId(u16::MAX - (i % 3) as u16);
        let frame = FrameId((i * 7) as u16);
        let priority = if i % 2 == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        match i % 13 {
            0 => TraceKind::Dispatch { pkt },
            1 => TraceKind::Send { pkt, dst: pe },
            2 => TraceKind::ThreadSpawn {
                frame,
                entry: u32::MAX - i as u32,
            },
            3 => TraceKind::ThreadResume { frame },
            4 => TraceKind::ThreadSuspend {
                frame,
                cause: causes[i % causes.len()],
            },
            5 => TraceKind::ThreadRetire { frame },
            6 => TraceKind::Enqueue {
                pkt,
                priority,
                spilled: i % 4 < 2,
                depth: usize::MAX - i,
            },
            7 => TraceKind::Unspill { pkt, priority },
            8 => TraceKind::DmaService {
                pkt,
                words: u16::MAX - i as u16,
            },
            9 => TraceKind::NetInject {
                pkt,
                dst: pe,
                hops: u32::MAX - i as u32,
            },
            10 => TraceKind::NetDeliver { pkt, src: pe },
            11 => TraceKind::DispatchEnd,
            _ => TraceKind::FaultInjected {
                pkt,
                dst: pe,
                fault: faults[i % faults.len()],
            },
        }
    };
    let (mut probe, handle) = DigestProbe::new();
    // The counter is process-wide, so an allocation by the test harness's
    // own thread can land inside one window; a probe that allocates moves
    // every window by at least 10k. The lock is released before the
    // asserts, so a failure here does not poison the other tests.
    let guard = LOCK.lock().unwrap();
    let fewest = (0..3u64)
        .map(|round| {
            let before = hostprof::CountingAlloc::raw_totals().0;
            for i in 0..10_000usize {
                let at = Cycle::new(u64::MAX - round * 10_000 - i as u64);
                probe.on(at, PeId((i % 64) as u16), kind(i));
            }
            hostprof::CountingAlloc::raw_totals().0 - before
        })
        .min()
        .unwrap();
    drop(guard);
    assert_eq!(fewest, 0, "DigestProbe::on allocated");
    assert_eq!(handle.events(), 30_000);
}

/// Allocations per popped calendar event over the whole of `run`: set-up,
/// simulation and verification, with no probe attached.
fn allocs_per_event(run: impl FnOnce()) -> f64 {
    hostprof::set_enabled(true);
    hostprof::reset();
    let before = hostprof::CountingAlloc::raw_totals().0;
    run();
    let allocs = hostprof::CountingAlloc::raw_totals().0 - before;
    let pops = hostprof::snapshot().sim[hostprof::Sim::CalPops as usize];
    hostprof::set_enabled(false);
    assert!(pops > 0, "the run popped no events");
    allocs as f64 / pops as f64
}

#[test]
fn probe_free_runs_allocate_almost_nothing_per_event() {
    // The event loop reuses its dispatch, DMA-response and calendar
    // buffers, so what is left is set-up and the per-spawn thread bodies,
    // spread over every event of the run. A per-event allocation anywhere
    // on the hot path puts the ratio near or above 1.
    let _g = LOCK.lock().unwrap();
    let mut cfg = MachineConfig::with_pes(16);
    cfg.local_memory_words = 1 << 16;
    let sort = allocs_per_event(|| {
        run_bitonic(&cfg, &SortParams::new(16 * 512, 4)).unwrap();
    });
    let fft = allocs_per_event(|| {
        run_fft(&cfg, &FftParams::new(16 * 256, 4)).unwrap();
    });
    assert!(sort < 0.01, "bitonic sort: {sort} allocations per event");
    assert!(fft < 0.01, "FFT: {fft} allocations per event");
}
