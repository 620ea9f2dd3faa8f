//! CLI error type and exit-code mapping.
//!
//! Every command failure funnels into [`CliError`] so the binary can
//! report cleanly and exit with a meaningful code instead of panicking
//! on a missing file or an unwritable output path. The process exit
//! codes are:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean: the command completed and every sweep point succeeded |
//! | 3    | partial: the command completed but some suite points failed |
//! | 2    | unrecoverable: bad usage, I/O failure, or a simulation error |

use std::fmt;

use crate::args::ArgError;

/// Process exit code for a clean run.
pub const EXIT_CLEAN: i32 = 0;
/// Process exit code for an unrecoverable error (usage, I/O, or
/// simulation failure).
pub const EXIT_ERROR: i32 = 2;
/// Process exit code for a partial result: the command completed but
/// some suite points failed.
pub const EXIT_PARTIAL: i32 = 3;

/// Why a CLI command failed unrecoverably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad usage: unknown command, unknown option, or invalid value.
    Usage(String),
    /// An I/O operation failed (missing trace file, unwritable `--out`).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The simulation or a self-check failed.
    Failed(String),
}

impl CliError {
    /// Convenience constructor for I/O failures.
    pub fn io(path: &str, detail: impl fmt::Display) -> Self {
        CliError::Io {
            path: path.to_string(),
            detail: detail.to_string(),
        }
    }

    /// The process exit code for this error (always [`EXIT_ERROR`]; the
    /// partial-results code is carried by [`CmdOut::partial`], not an
    /// error).
    pub fn exit_code(&self) -> i32 {
        EXIT_ERROR
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => write!(f, "{msg}"),
            CliError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// A command's rendered output plus its completion status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOut {
    /// The report text to print.
    pub text: String,
    /// True when some suite points failed and the output holds partial
    /// results (exit code [`EXIT_PARTIAL`]).
    pub partial: bool,
}

impl CmdOut {
    /// A fully successful command.
    pub fn clean(text: String) -> Self {
        CmdOut {
            text,
            partial: false,
        }
    }

    /// The exit code this output maps to.
    pub fn exit_code(&self) -> i32 {
        if self.partial {
            EXIT_PARTIAL
        } else {
            EXIT_CLEAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_errors_convert_to_usage() {
        let e: CliError = ArgError::Unexpected("extra".into()).into();
        assert!(matches!(e, CliError::Usage(_)));
        assert!(e.to_string().contains("unexpected argument `extra`"));
        assert_eq!(e.exit_code(), EXIT_ERROR);
    }

    #[test]
    fn io_errors_name_the_path() {
        let e = CliError::io("/tmp/missing.fpkt", "no such file");
        assert_eq!(e.to_string(), "/tmp/missing.fpkt: no such file");
    }

    #[test]
    fn partial_flag_selects_exit_code() {
        assert_eq!(CmdOut::clean("ok".into()).exit_code(), EXIT_CLEAN);
        let partial = CmdOut {
            text: "some".into(),
            partial: true,
        };
        assert_eq!(partial.exit_code(), EXIT_PARTIAL);
    }
}
