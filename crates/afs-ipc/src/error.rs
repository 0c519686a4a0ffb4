//! IPC error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the IPC primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpcError {
    /// The read end of a pipe was closed while writing, or vice versa for
    /// operations that require a peer.
    BrokenPipe,
    /// The channel or object was closed and holds no more data.
    Closed,
    /// A named synchronisation object was not found in the registry.
    NotFound,
    /// A named synchronisation object already exists with a conflicting
    /// configuration.
    AlreadyExists,
    /// The operation is not supported on this transport (e.g. posting a
    /// command that owes a reply to the batched ring).
    Unsupported,
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            IpcError::BrokenPipe => "broken pipe",
            IpcError::Closed => "channel closed",
            IpcError::NotFound => "named object not found",
            IpcError::AlreadyExists => "named object already exists",
            IpcError::Unsupported => "operation not supported on this transport",
        };
        f.write_str(msg)
    }
}

impl Error for IpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_unpunctuated() {
        for e in [
            IpcError::BrokenPipe,
            IpcError::Closed,
            IpcError::NotFound,
            IpcError::AlreadyExists,
            IpcError::Unsupported,
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
            assert_eq!(msg, msg.to_lowercase());
        }
    }

    #[test]
    fn implements_error_send_sync() {
        fn assert_err<T: Error + Send + Sync + 'static>() {}
        assert_err::<IpcError>();
    }
}
