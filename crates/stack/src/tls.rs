//! TLS record-layer model.
//!
//! Figure 1's left two columns differ in *where* TLS records are formed:
//! in the application (userspace TLS) or inside the stack (kTLS). For
//! traffic analysis what matters is the byte inflation and framing TLS
//! imposes between application objects and the TCP byte stream. TLS 1.3
//! also allows zero-padding records, which is where the paper expects
//! *application-driven* padding policies to be implemented; Stob
//! deliberately leaves padding to the application (§4.2), so records
//! here are never padded.
//!
//! We model records as byte accounting: `wrap(n)` returns how many
//! ciphertext bytes enter the TCP stream for `n` plaintext bytes.

/// Maximum plaintext fragment per TLS record (RFC 8446).
pub const MAX_RECORD_PLAINTEXT: u64 = 16_384;
/// Per-record overhead: 5-byte header + 16-byte AEAD tag + 1-byte content
/// type (TLS 1.3 inner type).
pub const RECORD_OVERHEAD: u64 = 22;

/// Where records are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsMode {
    /// Records formed by the application library before `send()`.
    Userspace,
    /// Records formed inside the stack (kTLS): the stack sees plaintext
    /// sizes.
    Kernel,
}

/// A TLS session's record-layer accounting.
#[derive(Debug, Clone)]
pub struct TlsSession {
    /// Total plaintext bytes wrapped.
    pub(crate) plaintext_bytes: u64,
    /// Total ciphertext bytes produced.
    pub(crate) ciphertext_bytes: u64,
    pub(crate) records: u64,
}

impl TlsSession {
    /// A session whose records are formed by `_mode`'s layer; the byte
    /// accounting is the same either way.
    pub fn new(_mode: TlsMode) -> Self {
        TlsSession {
            plaintext_bytes: 0,
            ciphertext_bytes: 0,
            records: 0,
        }
    }

    /// Wrap `n` plaintext bytes into records; returns ciphertext bytes to
    /// write to the transport.
    pub fn wrap(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let mut remaining = n;
        let mut out = 0;
        while remaining > 0 {
            let frag = remaining.min(MAX_RECORD_PLAINTEXT);
            out += frag + RECORD_OVERHEAD;
            self.records += 1;
            remaining -= frag;
        }
        self.plaintext_bytes += n;
        self.ciphertext_bytes += out;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_small_record() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        let out = s.wrap(1000);
        assert_eq!(out, 1000 + RECORD_OVERHEAD);
        assert_eq!(s.records, 1);
    }

    #[test]
    fn fragments_at_16k() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        let out = s.wrap(MAX_RECORD_PLAINTEXT * 2 + 5);
        assert_eq!(s.records, 3);
        assert_eq!(out, MAX_RECORD_PLAINTEXT * 2 + 5 + 3 * RECORD_OVERHEAD);
    }

    #[test]
    fn zero_bytes_produce_nothing() {
        let mut s = TlsSession::new(TlsMode::Kernel);
        assert_eq!(s.wrap(0), 0);
        assert_eq!(s.records, 0);
    }

    #[test]
    fn overhead_ratio() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        s.wrap(MAX_RECORD_PLAINTEXT);
        assert_eq!(s.ciphertext_bytes - s.plaintext_bytes, RECORD_OVERHEAD);
    }
}
