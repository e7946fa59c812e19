//! Versioned, checksummed snapshot envelopes for engine checkpoint/restore.
//!
//! A [`Snapshot`] holds one engine's complete state as the opaque bytes of
//! its [`Persist`] walk (see [`crate::persist`]), tagged with the engine
//! kind. Serialized, it is a one-line JSON envelope carrying a format
//! version, the engine kind, an FNV-1a checksum of the bytes, and the
//! bytes themselves in base64:
//!
//! ```json
//! {"snapshot_version":2,"engine":"flex","checksum":"9cf9109812c7fc2a","payload":"AQID..."}
//! ```
//!
//! The envelope is what makes restore *safe* rather than merely possible:
//! [`Snapshot::from_json`] rejects a blob written by a different snapshot
//! format version ([`SnapshotError::VersionMismatch`]) or corrupted in
//! transit or on disk ([`SnapshotError::ChecksumMismatch`]) before any
//! engine ever sees the bytes, and [`Snapshot::restore_into`] rejects bytes
//! aimed at a different engine kind. The determinism contract — a run
//! restored from any epoch-boundary snapshot is byte-identical to an
//! uninterrupted run — is the engines' job; this module guarantees they
//! only ever restore bytes that round-tripped intact.

use std::fmt;

use crate::hash;
use crate::json::{self, JsonValue};
use crate::persist::{self, Persist};

/// Version stamp written into every envelope. Bump when the [`Persist`]
/// walk of any engine changes incompatibly.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot blob was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob was written by a different snapshot format version.
    VersionMismatch {
        /// The version found in the envelope.
        found: u64,
    },
    /// The payload does not hash to the checksum in the envelope.
    ChecksumMismatch {
        /// The checksum the envelope claims.
        claimed: String,
        /// The checksum the payload actually hashes to.
        actual: String,
    },
    /// The payload belongs to a different engine kind.
    EngineMismatch {
        /// The engine kind doing the restore.
        expected: String,
        /// The engine kind in the envelope.
        found: String,
    },
    /// The blob is not a well-formed envelope, or the payload bytes are
    /// truncated or describe a different configuration.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot version {found} is not the supported version {SNAPSHOT_VERSION}"
            ),
            SnapshotError::ChecksumMismatch { claimed, actual } => write!(
                f,
                "snapshot checksum mismatch: envelope claims {claimed}, payload hashes to {actual}"
            ),
            SnapshotError::EngineMismatch { expected, found } => write!(
                f,
                "snapshot was taken from engine {found:?}, cannot restore into {expected:?}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Builds a [`SnapshotError::Malformed`] from anything displayable.
pub fn malformed(msg: impl fmt::Display) -> SnapshotError {
    SnapshotError::Malformed(msg.to_string())
}

/// A complete engine state at an epoch boundary, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The engine kind that produced the bytes (`"flex"`, `"lite"`,
    /// `"central"`, `"cpu"`, ...).
    pub engine: String,
    /// The engine's [`Persist`] walk, as written by [`persist::save`].
    pub bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps already-encoded `bytes` for engine kind `engine`.
    pub fn new(engine: impl Into<String>, bytes: Vec<u8>) -> Snapshot {
        Snapshot {
            engine: engine.into(),
            bytes,
        }
    }

    /// Captures `state` for engine kind `engine`.
    pub fn capture<T: Persist + ?Sized>(engine: impl Into<String>, state: &mut T) -> Snapshot {
        Snapshot::new(engine, persist::save(state))
    }

    /// Restores `state`, an engine of kind `kind` freshly built from the
    /// snapshotted configuration.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] when the snapshot was taken by a
    /// different engine kind, [`SnapshotError::Malformed`] when the bytes
    /// do not describe this configuration.
    pub fn restore_into<T: Persist + ?Sized>(
        &self,
        kind: &str,
        state: &mut T,
    ) -> Result<(), SnapshotError> {
        self.expect_engine(kind)?;
        persist::load(state, &self.bytes)
    }

    /// The FNV-1a 64 checksum of the bytes, as 16 lower-case hex digits.
    pub fn checksum(&self) -> String {
        hash::content_address(hash::fnv64(&self.bytes))
    }

    /// Renders the sealed envelope as one line of deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"snapshot_version\":{SNAPSHOT_VERSION},\"engine\":");
        json::write_string(&mut out, &self.engine);
        out.push_str(",\"checksum\":\"");
        out.push_str(&self.checksum());
        out.push_str("\",\"payload\":\"");
        base64_encode(&self.bytes, &mut out);
        out.push_str("\"}");
        out
    }

    /// Parses and verifies an envelope produced by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`] for a foreign format version,
    /// [`SnapshotError::ChecksumMismatch`] when the bytes do not hash to
    /// the envelope's checksum, [`SnapshotError::Malformed`] for anything
    /// that does not parse as an envelope.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
        let value = JsonValue::parse(text).map_err(malformed)?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| malformed(format!("missing field {key:?}")))
        };
        let string = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| malformed(format!("field {key:?} is not a string")))
        };
        let version = field("snapshot_version")?
            .as_u64()
            .ok_or_else(|| malformed("field \"snapshot_version\" is not a u64"))?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let engine = string("engine")?.to_owned();
        let claimed = string("checksum")?.to_owned();
        let bytes =
            base64_decode(string("payload")?).ok_or_else(|| malformed("payload is not base64"))?;
        let snap = Snapshot { engine, bytes };
        let actual = snap.checksum();
        if actual != claimed {
            return Err(SnapshotError::ChecksumMismatch { claimed, actual });
        }
        Ok(snap)
    }

    /// Checks that the bytes were taken from engine kind `kind`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] otherwise.
    pub fn expect_engine(&self, kind: &str) -> Result<(), SnapshotError> {
        if self.engine == kind {
            Ok(())
        } else {
            Err(SnapshotError::EngineMismatch {
                expected: kind.to_owned(),
                found: self.engine.clone(),
            })
        }
    }
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Appends the padded standard base64 of `bytes` to `out`.
fn base64_encode(bytes: &[u8], out: &mut String) {
    out.reserve(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = u32::from(b[0]) << 16 | u32::from(b[1]) << 8 | u32::from(b[2]);
        for i in 0..4 {
            if i <= chunk.len() {
                out.push(BASE64[(n >> (18 - 6 * i) & 63) as usize] as char);
            } else {
                out.push('=');
            }
        }
    }
}

/// Sextet value of each base64 byte; `INVALID` for bytes outside the
/// alphabet (including the `=` padding, which is handled separately).
const SEXTETS: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};
const INVALID: u8 = 0xff;

/// Inverse of [`base64_encode`]; `None` for anything it would not produce.
fn base64_decode(text: &str) -> Option<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return None;
    }
    let pad = text.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return None;
    }
    // Every quad but a padded last one decodes to three bytes.
    let (full, tail) = text.split_at(text.len() - if pad > 0 { 4 } else { 0 });
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let quad = |q: &[u8]| -> Option<u32> {
        q.iter().try_fold(0u32, |n, &c| match SEXTETS[c as usize] {
            INVALID => None,
            v => Some(n << 6 | u32::from(v)),
        })
    };
    for q in full.chunks_exact(4) {
        out.extend_from_slice(&quad(q)?.to_be_bytes()[1..]);
    }
    if pad > 0 {
        let data = 4 - pad;
        let n = quad(&tail[..data])? << (6 * pad);
        out.extend_from_slice(&n.to_be_bytes()[1..data]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes() -> Vec<u8> {
        let mut state = (12_345u64, vec![1u64, u64::MAX, 3]);
        persist::save(&mut state)
    }

    #[test]
    fn seal_and_reopen_round_trips_exactly() {
        let snap = Snapshot::new("flex", bytes());
        let text = snap.to_json();
        assert!(!text.contains('\n'), "one line");
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text, "re-sealing is byte-stable");
        let mut state = (0u64, Vec::new());
        back.restore_into("flex", &mut state).unwrap();
        // u64::MAX survives the round trip exactly.
        assert_eq!(state, (12_345, vec![1, u64::MAX, 3]));
        assert_eq!(
            back.restore_into("cpu", &mut state),
            Err(SnapshotError::EngineMismatch {
                expected: "cpu".to_owned(),
                found: "flex".to_owned(),
            })
        );
    }

    #[test]
    fn base64_round_trips_every_tail_length() {
        for n in 0..7u8 {
            let data: Vec<u8> = (0..n).map(|i| i.wrapping_mul(97) ^ 0xa5).collect();
            let mut text = String::new();
            base64_encode(&data, &mut text);
            assert_eq!(text.len() % 4, 0);
            assert_eq!(base64_decode(&text), Some(data));
        }
        let mut text = String::new();
        base64_encode(b"foobar", &mut text);
        assert_eq!(text, "Zm9vYmFy");
        for bad in ["Zm9", "Zm9v!mFy", "Z===", "=m9v"] {
            assert_eq!(base64_decode(bad), None, "{bad}");
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = Snapshot::new("flex", bytes()).to_json().replace(
            &format!("\"snapshot_version\":{SNAPSHOT_VERSION}"),
            "\"snapshot_version\":999",
        );
        let err = Snapshot::from_json(&text).unwrap_err();
        assert_eq!(err, SnapshotError::VersionMismatch { found: 999 });
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn version_one_envelopes_are_a_version_mismatch() {
        let v1 = "{\"snapshot_version\":1,\"engine\":\"flex\",\
                  \"checksum\":\"9cf9109812c7fc2a\",\"payload\":{\"pc\":41}}";
        assert_eq!(
            Snapshot::from_json(v1),
            Err(SnapshotError::VersionMismatch { found: 1 })
        );
    }

    #[test]
    fn corrupted_payload_is_rejected_by_checksum() {
        let snap = Snapshot::new("flex", bytes());
        let text = snap.to_json();
        // Swap in different bytes under the original checksum.
        let mut other = snap.clone();
        other.bytes[0] ^= 1;
        let corrupted = text.replace(&payload_of(&text), &payload_of(&other.to_json()));
        assert_ne!(corrupted, text);
        let err = Snapshot::from_json(&corrupted).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "got {err}"
        );
    }

    fn payload_of(text: &str) -> String {
        let value = JsonValue::parse(text).unwrap();
        value
            .get("payload")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned()
    }

    #[test]
    fn malformed_envelopes_name_the_problem() {
        assert!(matches!(
            Snapshot::from_json("not json").unwrap_err(),
            SnapshotError::Malformed(_)
        ));
        assert!(Snapshot::from_json("{}")
            .unwrap_err()
            .to_string()
            .contains("snapshot_version"));
        let no_payload = "{\"snapshot_version\":2,\"engine\":\"flex\",\"checksum\":\"00\"}";
        assert!(Snapshot::from_json(no_payload)
            .unwrap_err()
            .to_string()
            .contains("payload"));
        let not_base64 =
            "{\"snapshot_version\":2,\"engine\":\"flex\",\"checksum\":\"00\",\"payload\":\"@@@@\"}";
        assert!(Snapshot::from_json(not_base64)
            .unwrap_err()
            .to_string()
            .contains("base64"));
    }
}
