//! The traced child: the same run as the untraced one, with spans
//! recorded around every call into the simulator and every allocation
//! counted. Only the per-layer ledger reads its numbers.

#[global_allocator]
static ALLOC: nezha_benchmark::alloc::CountingAlloc = nezha_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    nezha_benchmark::cli::main(true)
}
