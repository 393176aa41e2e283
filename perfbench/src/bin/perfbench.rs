//! The untraced benchmark binary: input generation and end-to-end runs.

fn main() -> std::process::ExitCode {
    xqa_perfbench::cli::main(false)
}
