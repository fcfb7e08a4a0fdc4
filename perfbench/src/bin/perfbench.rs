//! Untraced end-to-end measurement; see the crate docs.

fn main() {
    emx_perfbench::untraced_main();
}
