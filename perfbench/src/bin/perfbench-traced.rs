//! The traced benchmark binary: the same workloads with layer spans
//! and a counting global allocator, for the per-layer metrics.

use xqa_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    xqa_perfbench::cli::main(true)
}
