//! Error types for the eBPF virtual machine.

use std::fmt;

/// Errors produced while decoding, verifying or executing eBPF programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The byte stream could not be decoded into instructions.
    Decode(String),
    /// The text assembler rejected the source.
    Assembler {
        /// 1-based source line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The verifier rejected the program.
    Verifier {
        /// Index of the offending instruction, when known.
        insn: usize,
        /// What went wrong.
        message: String,
    },
    /// A fault occurred at run time (bad memory access, division by zero,
    /// unknown helper, instruction budget exceeded, ...).
    Runtime {
        /// Index of the faulting instruction.
        insn: usize,
        /// What went wrong.
        message: String,
    },
    /// A map operation failed (wrong key/value size, capacity exceeded, ...).
    Map(String),
    /// A helper reported a fatal error that must abort the program.
    Helper(String),
    /// The process configuration is invalid (an unknown `SEG6_EXEC_TIER`).
    Config(String),
}

impl Error {
    /// Convenience constructor for verifier errors.
    pub fn verifier(insn: usize, message: impl Into<String>) -> Self {
        Error::Verifier { insn, message: message.into() }
    }

    /// Convenience constructor for runtime errors.
    pub fn runtime(insn: usize, message: impl Into<String>) -> Self {
        Error::Runtime { insn, message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Decode(msg) => write!(f, "decode error: {msg}"),
            Error::Assembler { line, message } => write!(f, "assembler error at line {line}: {message}"),
            Error::Verifier { insn, message } => write!(f, "verifier rejected instruction {insn}: {message}"),
            Error::Runtime { insn, message } => write!(f, "runtime fault at instruction {insn}: {message}"),
            Error::Map(msg) => write!(f, "map error: {msg}"),
            Error::Helper(msg) => write!(f, "helper error: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_instruction_index() {
        let err = Error::verifier(7, "uninitialised register r3");
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains("r3"));
        let err = Error::runtime(12, "division by zero");
        assert!(err.to_string().contains("12"));
    }
}
