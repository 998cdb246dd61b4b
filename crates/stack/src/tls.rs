//! TLS record-layer model.
//!
//! Figure 1's left two columns differ in *where* TLS records are formed:
//! in the application (userspace TLS) or inside the stack (kTLS). For
//! traffic analysis what matters is the byte inflation and framing TLS
//! imposes between application objects and the TCP byte stream. TLS 1.3
//! also allows zero-padding records, which is where the paper expects
//! *application-driven* padding policies to be implemented (§4.2): a
//! record's plaintext may be padded up to a multiple of a quantum,
//! which the page loader's record-padding defense uses.
//!
//! We model records as byte accounting: [`framed_bytes`] is how many
//! ciphertext bytes enter the TCP stream for `n` plaintext bytes, the
//! one framing rule both the page loader and [`TlsSession::wrap`] use.

/// Maximum plaintext fragment per TLS record (RFC 8446).
pub const MAX_RECORD_PLAINTEXT: u64 = 16_384;
/// Per-record overhead: 5-byte header + 16-byte AEAD tag + 1-byte content
/// type (TLS 1.3 inner type).
pub const RECORD_OVERHEAD: u64 = 22;

/// Ciphertext bytes for `n` plaintext bytes cut into records of at most
/// [`MAX_RECORD_PLAINTEXT`], each record's plaintext zero-padded up to a
/// multiple of `pad_quantum` (0 or 1 = unpadded) but never past the
/// record limit.
pub fn framed_bytes(n: u64, pad_quantum: u64) -> u64 {
    let full = n / MAX_RECORD_PLAINTEXT;
    let tail = n % MAX_RECORD_PLAINTEXT;
    let mut out = full * (MAX_RECORD_PLAINTEXT + RECORD_OVERHEAD);
    if tail > 0 {
        let padded = if pad_quantum > 1 {
            (tail.div_ceil(pad_quantum) * pad_quantum).min(MAX_RECORD_PLAINTEXT)
        } else {
            tail
        };
        out += padded + RECORD_OVERHEAD;
    }
    out
}

/// Where records are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsMode {
    /// Records formed by the application library before `send()`.
    Userspace,
    /// Records formed inside the stack (kTLS): the stack sees plaintext
    /// sizes.
    Kernel,
}

/// A TLS session's record layer: unpadded [`framed_bytes`].
#[derive(Debug, Clone)]
pub struct TlsSession;

impl TlsSession {
    /// A session whose records are formed by `_mode`'s layer; which
    /// layer forms them changes where the plaintext sizes are visible,
    /// not the bytes on the stream, so the framing is the same either
    /// way.
    pub fn new(_mode: TlsMode) -> Self {
        TlsSession
    }

    /// Wrap `n` plaintext bytes into records; returns ciphertext bytes to
    /// write to the transport.
    pub fn wrap(&mut self, n: u64) -> u64 {
        framed_bytes(n, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_small_record() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        assert_eq!(s.wrap(1000), 1000 + RECORD_OVERHEAD);
    }

    #[test]
    fn fragments_at_16k() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        let out = s.wrap(MAX_RECORD_PLAINTEXT * 2 + 5);
        assert_eq!(out, MAX_RECORD_PLAINTEXT * 2 + 5 + 3 * RECORD_OVERHEAD);
    }

    #[test]
    fn zero_bytes_produce_nothing() {
        let mut s = TlsSession::new(TlsMode::Kernel);
        assert_eq!(s.wrap(0), 0);
        assert_eq!(framed_bytes(0, 4096), 0);
    }

    #[test]
    fn overhead_ratio() {
        let mut s = TlsSession::new(TlsMode::Userspace);
        assert_eq!(
            s.wrap(MAX_RECORD_PLAINTEXT) - MAX_RECORD_PLAINTEXT,
            RECORD_OVERHEAD
        );
    }

    /// The record-by-record rule, padding each record on its own.
    fn per_record(n: u64, quantum: u64) -> u64 {
        let (mut remaining, mut out) = (n, 0);
        while remaining > 0 {
            let frag = remaining.min(MAX_RECORD_PLAINTEXT);
            let padded = if quantum > 1 {
                (frag.div_ceil(quantum) * quantum).min(MAX_RECORD_PLAINTEXT)
            } else {
                frag
            };
            out += padded + RECORD_OVERHEAD;
            remaining -= frag;
        }
        out
    }

    #[test]
    fn framing_matches_the_per_record_rule() {
        let sizes = [
            1,
            100,
            4095,
            4096,
            MAX_RECORD_PLAINTEXT - 1,
            MAX_RECORD_PLAINTEXT,
            MAX_RECORD_PLAINTEXT + 1,
            3 * MAX_RECORD_PLAINTEXT + 777,
            1 << 20,
        ];
        for n in sizes {
            for quantum in [0, 1, 512, 4096, MAX_RECORD_PLAINTEXT, 40_000] {
                assert_eq!(
                    framed_bytes(n, quantum),
                    per_record(n, quantum),
                    "{n} {quantum}"
                );
            }
        }
    }
}
