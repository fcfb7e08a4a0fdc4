//! Traced per-layer measurement; see the crate docs.

#[global_allocator]
static ALLOC: emx::hostprof::CountingAlloc = emx::hostprof::CountingAlloc::new();

fn main() {
    emx_perfbench::traced::main();
}
