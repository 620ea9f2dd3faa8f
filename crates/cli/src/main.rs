//! `finepack-sim`: thin binary wrapper over the [`cli`] library.
//!
//! Exit codes: 0 clean, 3 partial results (some suite points failed),
//! 2 unrecoverable error.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli::execute(argv) {
        Ok(out) => {
            print!("{}", out.text);
            std::process::exit(out.exit_code());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
