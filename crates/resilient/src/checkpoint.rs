//! Versioned, CRC32-checksummed binary training snapshots.
//!
//! A checkpoint captures everything the training loop needs to continue a
//! run bit-for-bit: every parameter tensor (value + both Adam moments),
//! the epoch/step cursor, the current learning rate, the shuffle-RNG state
//! and the composed shuffle order. All scalars are little-endian; `f32`
//! round-trips through `to_le_bytes`/`from_le_bytes`, which is lossless,
//! so a restored model is bitwise the one that was saved.
//!
//! # On-disk layout (version 1)
//!
//! | field | type | notes |
//! |---|---|---|
//! | magic | 8 bytes | `M3DCKPT1` |
//! | version | u32 | currently 1 |
//! | epoch | u64 | completed epochs |
//! | t | u64 | Adam step count |
//! | rng_state | u64 | shuffle-RNG raw state |
//! | lr | f32 | current learning rate |
//! | order len | u32 | then that many u32 sample indices |
//! | tensor count | u32 | |
//! | per tensor | u32 rows, u32 cols, then rows·cols f32 each for value, m, v | |
//! | crc32 | u32 | IEEE CRC-32 of every preceding byte |
//!
//! Files are written via write-to-temp + `fsync` + atomic rename
//! ([`save_atomic`]), so a crash mid-write leaves either the previous
//! checkpoint or none — never a torn one. Torn or corrupted files that do
//! appear (the chaos suite makes them on purpose) are rejected by the CRC
//! trailer or the length checks with a typed [`CheckpointError`].

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use m3d_gnn::{Matrix, Param, TrainCursor};

/// File magic: "M3DCKPT" plus the major layout generation.
pub const MAGIC: [u8; 8] = *b"M3DCKPT1";
/// Current checkpoint layout version.
pub const VERSION: u32 = 1;

/// IEEE CRC-32 (the zlib/PNG polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One parameter tensor's full Adam state.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorState {
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    /// Parameter values, row-major.
    pub value: Vec<f32>,
    /// First Adam moment, row-major.
    pub m: Vec<f32>,
    /// Second Adam moment, row-major.
    pub v: Vec<f32>,
}

/// A complete training snapshot: cursor plus every parameter tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// Completed epochs.
    pub epoch: u64,
    /// Adam step count.
    pub t: u64,
    /// Raw shuffle-RNG state.
    pub rng_state: u64,
    /// Current learning rate.
    pub lr: f32,
    /// The composed shuffle order (epoch `k`'s permutation is `k` shuffles
    /// deep — it cannot be reconstructed from the seed, so it is stored).
    pub order: Vec<u32>,
    /// Parameter tensors in the model's fixed `params()` order.
    pub tensors: Vec<TensorState>,
}

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file ended before the declared payload (e.g. a torn write that
    /// bypassed the atomic-rename protocol, or chaos truncation).
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The layout version is not one this build understands.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The CRC-32 trailer does not match the payload (bit rot or chaos
    /// bit-flips).
    CrcMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The snapshot holds a different number of tensors than the model.
    TensorCountMismatch {
        /// Tensors the model expects.
        expected: usize,
        /// Tensors the snapshot holds.
        found: usize,
    },
    /// A tensor's shape differs from the model parameter it should fill.
    ShapeMismatch {
        /// Index of the offending tensor.
        tensor: usize,
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape the snapshot holds.
        found: (usize, usize),
    },
    /// The snapshot's shuffle order is not a permutation of the resumed
    /// run's sample indices: it was written for another training set.
    OrderMismatch {
        /// Training samples in the resumed run.
        expected: usize,
        /// Entries in the snapshot's shuffle order.
        found: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated { at } => {
                write!(f, "checkpoint truncated at byte {at}")
            }
            CheckpointError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::TensorCountMismatch { expected, found } => write!(
                f,
                "checkpoint holds {found} tensors but the model has {expected}"
            ),
            CheckpointError::ShapeMismatch {
                tensor,
                expected,
                found,
            } => write!(
                f,
                "tensor {tensor} shape mismatch: model {expected:?}, checkpoint {found:?}"
            ),
            CheckpointError::OrderMismatch { expected, found } => write!(
                f,
                "checkpoint shuffle order has {found} entries, not a permutation of \
                 this run's {expected} training samples"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl TrainCheckpoint {
    /// Snapshots a model's parameters (in its `params()` order) and its
    /// training cursor.
    pub fn capture(params: &[&Param], cursor: &TrainCursor) -> Self {
        let tensors = params
            .iter()
            .map(|p| {
                let (m, v) = p.moments();
                TensorState {
                    rows: p.value.rows() as u32,
                    cols: p.value.cols() as u32,
                    value: p.value.data().to_vec(),
                    m: m.data().to_vec(),
                    v: v.data().to_vec(),
                }
            })
            .collect();
        TrainCheckpoint {
            epoch: cursor.epoch as u64,
            t: cursor.t,
            rng_state: cursor.rng_state(),
            lr: cursor.lr,
            order: cursor.order().iter().map(|&i| i as u32).collect(),
            tensors,
        }
    }

    /// Writes the snapshot back into a model's parameters (its
    /// `params_mut()` order) and returns the restored cursor. Shapes are
    /// validated before anything is mutated, so a mismatching snapshot
    /// leaves the model untouched.
    pub fn restore_into(&self, params: &mut [&mut Param]) -> Result<TrainCursor, CheckpointError> {
        if self.tensors.len() != params.len() {
            return Err(CheckpointError::TensorCountMismatch {
                expected: params.len(),
                found: self.tensors.len(),
            });
        }
        for (i, (p, t)) in params.iter().zip(&self.tensors).enumerate() {
            let expected = (p.value.rows(), p.value.cols());
            let found = (t.rows as usize, t.cols as usize);
            if expected != found {
                return Err(CheckpointError::ShapeMismatch {
                    tensor: i,
                    expected,
                    found,
                });
            }
        }
        for (p, t) in params.iter_mut().zip(&self.tensors) {
            let (rows, cols) = (t.rows as usize, t.cols as usize);
            p.value = Matrix::from_vec(rows, cols, t.value.clone());
            p.set_moments(
                Matrix::from_vec(rows, cols, t.m.clone()),
                Matrix::from_vec(rows, cols, t.v.clone()),
            );
        }
        Ok(TrainCursor::restore(
            self.epoch as usize,
            self.t,
            self.lr,
            self.rng_state,
            self.order.iter().map(|&i| i as usize).collect(),
        ))
    }

    /// Serializes to the on-disk byte layout (including the CRC trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&self.rng_state.to_le_bytes());
        out.extend_from_slice(&self.lr.to_le_bytes());
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for &i in &self.order {
            out.extend_from_slice(&i.to_le_bytes());
        }
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            out.extend_from_slice(&t.rows.to_le_bytes());
            out.extend_from_slice(&t.cols.to_le_bytes());
            for xs in [&t.value, &t.m, &t.v] {
                for &x in xs {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses the on-disk byte layout, validating magic, version, length,
    /// and the CRC trailer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 8 {
            return Err(CheckpointError::Truncated { at: bytes.len() });
        }
        // The CRC covers everything before the 4-byte trailer; check it
        // first so any corruption downstream of the magic is reported as
        // corruption, not as a structural error.
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { stored, computed });
        }
        let mut r = Reader {
            bytes: body,
            pos: MAGIC.len(),
        };
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let epoch = r.u64()?;
        let t = r.u64()?;
        let rng_state = r.u64()?;
        let lr = r.f32()?;
        let order_len = r.u32()? as usize;
        let mut order = Vec::with_capacity(order_len);
        for _ in 0..order_len {
            order.push(r.u32()?);
        }
        let n_tensors = r.u32()? as usize;
        let mut tensors = Vec::with_capacity(n_tensors);
        for _ in 0..n_tensors {
            let rows = r.u32()?;
            let cols = r.u32()?;
            let len = rows as usize * cols as usize;
            let value = r.f32s(len)?;
            let m = r.f32s(len)?;
            let v = r.f32s(len)?;
            tensors.push(TensorState {
                rows,
                cols,
                value,
                m,
                v,
            });
        }
        if r.pos != body.len() {
            // Trailing garbage would have broken the CRC already, but a
            // crafted file could pad consistently; reject it.
            return Err(CheckpointError::Truncated { at: r.pos });
        }
        Ok(TrainCheckpoint {
            epoch,
            t,
            rng_state,
            lr,
            order,
            tensors,
        })
    }
}

/// Little-endian cursor over a checkpoint body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(e) => {
                let s = &self.bytes[self.pos..e];
                self.pos = e;
                Ok(s)
            }
            None => Err(CheckpointError::Truncated {
                at: self.bytes.len(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated {
            at: self.bytes.len(),
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }
}

/// Writes arbitrary bytes crash-safely: write to `<path>.tmp` in the
/// same directory, `fsync`, then atomically rename over `path`. Readers
/// never observe a torn file. This is the shared atomic-write path used
/// by checkpoints and by flight-recorder dumps.
pub fn save_bytes_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// [`save_bytes_atomic`] for text documents (JSONL dumps, reports).
pub fn save_text_atomic(path: &Path, text: &str) -> io::Result<()> {
    save_bytes_atomic(path, text.as_bytes())
}

/// Writes a checkpoint crash-safely via [`save_bytes_atomic`].
pub fn save_atomic(path: &Path, ckpt: &TrainCheckpoint) -> Result<(), CheckpointError> {
    let mut span = m3d_obs::span("checkpoint_write");
    let start = std::time::Instant::now();
    let bytes = ckpt.to_bytes();
    span.add("bytes", bytes.len() as u64);
    save_bytes_atomic(path, &bytes)?;
    m3d_obs::counter("resilient.checkpoints_written", 1);
    m3d_obs::observe(
        "resilient.checkpoint_write_us",
        start.elapsed().as_micros() as f64,
    );
    Ok(())
}

/// Reads and validates a checkpoint file.
pub fn load(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
    let bytes = fs::read(path)?;
    TrainCheckpoint::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 3,
            t: 17,
            rng_state: 0xDEAD_BEEF_CAFE_F00D,
            lr: 0.005,
            order: vec![2, 0, 1],
            tensors: vec![TensorState {
                rows: 2,
                cols: 2,
                value: vec![1.0, -2.5, f32::MIN_POSITIVE, 4.0],
                m: vec![0.1, 0.2, 0.3, 0.4],
                v: vec![0.5, 0.6, 0.7, 0.8],
            }],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let ckpt = sample_checkpoint();
        let parsed = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip");
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample_checkpoint().to_bytes();
        for keep in 0..bytes.len() {
            let err = TrainCheckpoint::from_bytes(&bytes[..keep])
                .expect_err("every truncation must be rejected");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::BadMagic
                        | CheckpointError::CrcMismatch { .. }
                ),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            assert!(
                TrainCheckpoint::from_bytes(&corrupt).is_err(),
                "flip at byte {byte} must be caught"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        // Rewrite the version field and re-seal the CRC so only the
        // version check can object.
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn save_atomic_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("m3d-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.ckpt");
        let ckpt = sample_checkpoint();
        save_atomic(&path, &ckpt).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        assert_eq!(load(&path).expect("load"), ckpt);
        fs::remove_dir_all(&dir).ok();
    }
}
