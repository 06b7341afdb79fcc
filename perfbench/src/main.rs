//! Command-line entry point of the repository benchmark (see `lib.rs`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::execute(&args) {
        Ok((correct, text)) => {
            print!("{text}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a correctness check failed (see the CHECK FAILED lines)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
