//! The runner and the untraced child: every end-to-end number comes
//! from this binary.

fn main() -> std::process::ExitCode {
    nezha_benchmark::cli::main(false)
}
