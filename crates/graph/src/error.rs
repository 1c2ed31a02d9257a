//! Error type shared across the graph crate, and [`quoted`], the bounded
//! quote of a caller's string that every error naming one uses.

use std::fmt;

/// Characters of a caller's string that [`quoted`] keeps at most.
pub const QUOTE_CHARS: usize = 64;

/// `value` quoted for an error message, at a bounded size: whole (`'ic2'`)
/// when it has at most [`QUOTE_CHARS`] characters, else its first
/// [`QUOTE_CHARS`], cut on a character boundary, and its length in bytes
/// (`'xxx…' (1048576 bytes)`). Errors that name a string a client sent
/// (an unknown graph id, algorithm, model, generator or weight model, a bad
/// path, a mistyped field's value) quote it through this, so an error
/// answer stays small however large the request was.
pub fn quoted(value: &str) -> String {
    match value.char_indices().nth(QUOTE_CHARS) {
        None => format!("'{value}'"),
        Some((cut, _)) => format!("'{}…' ({} bytes)", &value[..cut], value.len()),
    }
}

/// Errors produced while constructing or loading graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange { node: u32, n: usize },
    /// An edge probability fell outside `(0, 1]`.
    InvalidProbability { u: u32, v: u32, p: f64 },
    /// A duplicate edge was found under [`DedupPolicy::Error`](crate::DedupPolicy).
    DuplicateEdge { u: u32, v: u32 },
    /// A self loop `⟨u, u⟩` was submitted.
    SelfLoop { u: u32 },
    /// An input file could not be parsed.
    Parse { line: usize, message: String },
    /// A `.smg` snapshot failed to decode. See [`StoreError`].
    Store(StoreError),
    /// An underlying I/O failure.
    Io(String),
}

/// Errors produced while decoding a `.smg` binary CSR snapshot.
///
/// Each corruption class maps to its own variant so callers (and tests) can
/// distinguish "wrong file type" from "damaged file" from "file from a newer
/// tool" without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The first 8 bytes are not the `.smg` magic.
    BadMagic,
    /// The header declares a format version this build cannot read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ended before a section was fully read.
    Truncated { section: &'static str },
    /// A section's stored CRC32 does not match the bytes on disk.
    ChecksumMismatch {
        section: &'static str,
        stored: u32,
        computed: u32,
    },
    /// The sections decoded but violate a structural invariant
    /// (non-monotone offsets, out-of-range target, bad probability, …).
    Malformed { message: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a .smg graph snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            StoreError::Truncated { section } => {
                write!(f, "snapshot truncated while reading {section}")
            }
            StoreError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Malformed { message } => write!(f, "malformed snapshot: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for GraphError {
    fn from(e: StoreError) -> Self {
        GraphError::Store(e)
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::InvalidProbability { u, v, p } => {
                write!(f, "edge ({u}, {v}) has probability {p} outside (0, 1]")
            }
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::SelfLoop { u } => write!(f, "self loop at node {u}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Store(e) => write!(f, "snapshot error: {e}"),
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_keeps_short_values_and_bounds_long_ones() {
        assert_eq!(quoted("ic2"), "'ic2'");
        assert_eq!(quoted(""), "''");
        let edge = "x".repeat(QUOTE_CHARS);
        assert_eq!(quoted(&edge), format!("'{edge}'"));
        assert_eq!(
            quoted(&format!("{edge}y")),
            format!("'{edge}…' ({} bytes)", QUOTE_CHARS + 1)
        );
        // 1 MiB of two-byte characters: cut after 64 of them, not 64 bytes
        let long = "é".repeat(1 << 19);
        assert_eq!(
            quoted(&long),
            format!("'{}…' (1048576 bytes)", "é".repeat(QUOTE_CHARS))
        );
    }
}
