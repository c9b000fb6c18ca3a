//! Error type for the `era` crate.

use std::fmt;

use era_string_store::StoreError;

/// Result alias.
pub type EraResult<T> = Result<T, EraError>;

/// Errors produced by ERA construction or the index API.
#[derive(Debug)]
pub enum EraError {
    /// Invalid configuration.
    Config(String),
    /// Error from the string storage layer.
    Store(StoreError),
    /// Invalid input (e.g. a generalized build with a separator clash).
    Input(String),
    /// I/O error while persisting or loading an index.
    Io(std::io::Error),
    /// A persisted or constructed index failed validation.
    Corrupt(String),
}

impl EraError {
    /// Creates a configuration error.
    pub fn config(msg: impl Into<String>) -> Self {
        EraError::Config(msg.into())
    }

    /// Creates an input error.
    pub fn input(msg: impl Into<String>) -> Self {
        EraError::Input(msg.into())
    }

    /// Creates a corrupt-index error.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        EraError::Corrupt(msg.into())
    }
}

impl fmt::Display for EraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EraError::Config(m) => write!(f, "configuration error: {m}"),
            EraError::Store(e) => write!(f, "storage error: {e}"),
            EraError::Input(m) => write!(f, "input error: {m}"),
            EraError::Io(e) => write!(f, "I/O error: {e}"),
            EraError::Corrupt(m) => write!(f, "corrupt index: {m}"),
        }
    }
}

impl std::error::Error for EraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EraError::Store(e) => Some(e),
            EraError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for EraError {
    /// A file-system failure beneath a store (EIO, a short read, a file
    /// truncated underfoot) is an I/O error of the index, not a storage-layer
    /// usage error.
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => EraError::Io(io),
            other => EraError::Store(other),
        }
    }
}

impl From<std::io::Error> for EraError {
    fn from(e: std::io::Error) -> Self {
        EraError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EraError::config("bad").to_string().contains("bad"));
        assert!(EraError::input("oops").to_string().contains("oops"));
        let store_err: EraError = StoreError::InvalidText("x".into()).into();
        assert!(store_err.to_string().contains("storage"));
        let read_err: EraError = StoreError::Io(std::io::Error::other("short read")).into();
        assert!(matches!(read_err, EraError::Io(_)), "{read_err:?}");
        let io_err: EraError = std::io::Error::other("disk").into();
        assert!(io_err.to_string().contains("disk"));
    }
}
