//! The untraced binary: end-to-end metrics come from here, with the
//! system allocator untouched.

fn main() -> std::process::ExitCode {
    seacma_benchmark::cli::main()
}
