//! The traced binary: the same program with the counting allocator
//! installed, so spans carry allocation counts (exact at `workers = 1`).
//! Per-layer metrics come from here; end-to-end metrics never do.

#[global_allocator]
static ALLOC: seacma_util::alloc::CountingAlloc = seacma_util::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    seacma_benchmark::cli::main()
}
