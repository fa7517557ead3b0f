//! Framing, checksums and file I/O for the write-ahead journal.
//!
//! Every byte written here must be identical across platforms and runs,
//! so all integers are explicit little-endian and every narrowing
//! conversion is a checked `try_from` (the module denies lossy casts).
//! The frame discipline mirrors `ugc_grid::codec` (length-prefixed,
//! bounded, validated before trusted) with one addition: a CRC-32 per
//! frame, because a journal — unlike an in-memory link — survives
//! process death and must detect the half-written frame that death
//! leaves behind.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use ugc_hash::{hex, HashFunction, Sha256};

use crate::{CrashPlan, JournalError};

/// The 8-byte file magic every journal starts with.
pub const MAGIC: [u8; 8] = *b"UGCJRNL1";

/// The on-disk format version this build reads and writes. The frame
/// layout has not changed since version 1; what a journal *records* has.
/// Version 2 counts the bytes and hashes of `ugc_grid` wire version 2
/// (one Merkle opening per round), so a campaign begun under version 1's
/// counts cannot resume into rounds that count the new ones. Version 3
/// writes each settled round as one record, where version 2 wrote a
/// round as a start record, a record per session and per member, and an
/// end record. Version 4 writes every integer in a record as canonical
/// LEB128 where version 3 wrote fixed-width words: about a fifth of the
/// bytes to checksum and chain. Version 5 writes a cost report as the
/// paper's four axes, where version 4 also wrote a fifth counter that
/// always repeated the hash count. Version 6 counts the bytes of wire
/// version 5 (LEB128 message integers): resuming a version-5 journal
/// would mix two charging rules in one digest.
pub const VERSION: u32 = 6;

/// Bytes of file header: magic plus little-endian version.
pub const FILE_HEADER_BYTES: u64 = 12;

/// Bytes of frame header: `[u32 len][u32 crc32]`.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// Largest accepted record payload — same ceiling as
/// `ugc_grid::codec::MAX_FIELD_LEN`, far above any real record, small
/// enough that a corrupt length field cannot provoke a huge allocation.
pub const MAX_RECORD_LEN: u64 = 1 << 30;

/// The 8-byte prefix that marks the attestation seal frame. Application
/// payloads must not start with it; [`JournalWriter::append`] rejects
/// impostors.
const SEAL_MAGIC: [u8; 8] = *b"UGCSEAL\0";

/// Total payload length of a seal frame: magic, record count, digest.
const SEAL_PAYLOAD_LEN: usize = 8 + 8 + 32;

/// The CRC-32 remainder of every byte value: entry `b` is eight bitwise
/// steps of the reflected polynomial `0xedb88320` from `b`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    // `byte` is `slot` as a `u32`, counted alongside it: a codec path
    // casts nothing.
    let mut slot = 0;
    let mut byte = 0u32;
    while slot < table.len() {
        let mut crc = byte;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[slot] = crc;
        slot += 1;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`), one table
/// look-up per byte — no dependencies, byte-order independent.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[usize::from(crc.to_le_bytes()[0] ^ byte)];
    }
    !crc
}

/// The chain-digest seed: a hash of the file header, so journals of
/// different versions can never share an attestation.
fn chain_start() -> [u8; 32] {
    let mut state = Sha256::new_state();
    Sha256::update(&mut state, &MAGIC);
    Sha256::update(&mut state, &VERSION.to_le_bytes());
    Sha256::finalize(state)
}

/// One chain step: `d' = SHA-256(d || payload)`.
fn chain_next(digest: &[u8; 32], payload: &[u8]) -> [u8; 32] {
    let mut state = Sha256::new_state();
    Sha256::update(&mut state, digest);
    Sha256::update(&mut state, payload);
    Sha256::finalize(state)
}

/// A record as read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// The record payload, exactly as appended.
    pub payload: Vec<u8>,
    /// Byte offset of the first byte *after* this record's frame — the
    /// truncation point that keeps this record and drops everything
    /// later.
    pub end_offset: u64,
}

/// What the end of the journal looked like on read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte parsed as a complete, checksummed frame.
    Clean,
    /// The journal ends in a partial or corrupt frame — the normal
    /// aftermath of a crash mid-append. Everything before `offset` is
    /// intact; recovery truncates from here.
    Torn {
        /// Byte offset where framing stopped making sense.
        offset: u64,
        /// What was wrong there.
        reason: String,
    },
}

/// The attestation seal: record count and chain digest pinned at
/// end-of-campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seal {
    /// How many records the sealed journal holds.
    pub records: u64,
    /// The chain digest over those records.
    pub digest: [u8; 32],
}

impl Seal {
    /// The attestation digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        hex::encode(&self.digest)
    }
}

/// A fully scanned journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadJournal {
    /// Every intact record, in append order (the seal frame excluded).
    pub records: Vec<RawRecord>,
    /// The seal, if the journal was sealed.
    pub seal: Option<Seal>,
    /// Whether the file ended cleanly or in a torn frame.
    pub tail: TailStatus,
    /// The recomputed chain digest over `records`.
    pub digest: [u8; 32],
}

impl ReadJournal {
    /// The recomputed chain digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        hex::encode(&self.digest)
    }
}

/// Parses a seal payload; `None` if the payload is an application
/// record.
fn parse_seal(payload: &[u8]) -> Option<Seal> {
    if payload.len() != SEAL_PAYLOAD_LEN || !payload.starts_with(&SEAL_MAGIC) {
        return None;
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(&payload[8..16]);
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&payload[16..48]);
    Some(Seal {
        records: u64::from_le_bytes(count),
        digest,
    })
}

/// Scans a journal file: header, then every frame until end-of-file or
/// the first malformed frame.
///
/// A torn tail is **not** an error — it is the expected state after a
/// crash, reported via [`TailStatus::Torn`] with everything before it
/// intact. Errors are reserved for files that are not journals at all
/// or cannot be read.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read;
/// [`JournalError::NotAJournal`] on bad magic or unsupported version.
pub fn read_journal(path: &Path) -> Result<ReadJournal, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::Io {
        context: "read journal",
        reason: e.to_string(),
    })?;
    if bytes.len() < 12 {
        return Err(JournalError::NotAJournal {
            reason: format!("file is {} bytes, shorter than the header", bytes.len()),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(JournalError::NotAJournal {
            reason: "bad magic".to_string(),
        });
    }
    let mut version = [0u8; 4];
    version.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(JournalError::NotAJournal {
            reason: format!("unsupported version {version} (this build reads {VERSION})"),
        });
    }

    let mut records = Vec::new();
    let mut digest = chain_start();
    let mut seal = None;
    let mut tail = TailStatus::Clean;
    let mut pos: usize = 12;
    loop {
        if pos == bytes.len() {
            break;
        }
        let torn = |reason: String| TailStatus::Torn {
            offset: pos as u64,
            reason,
        };
        let Some(header) = bytes.get(pos..pos + 8) else {
            tail = torn("truncated frame header".to_string());
            break;
        };
        let mut word = [0u8; 4];
        word.copy_from_slice(&header[..4]);
        let len = u32::from_le_bytes(word);
        word.copy_from_slice(&header[4..8]);
        let crc = u32::from_le_bytes(word);
        if u64::from(len) > MAX_RECORD_LEN {
            tail = torn(format!("declared length {len} exceeds the record limit"));
            break;
        }
        let Ok(len) = usize::try_from(len) else {
            tail = torn(format!("declared length {len} exceeds this platform"));
            break;
        };
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            tail = torn(format!("truncated payload ({len} bytes declared)"));
            break;
        };
        if crc32(payload) != crc {
            tail = torn("frame checksum mismatch".to_string());
            break;
        }
        if seal.is_some() {
            tail = torn("frame after the attestation seal".to_string());
            break;
        }
        if payload.starts_with(&SEAL_MAGIC) {
            match parse_seal(payload) {
                Some(s) => {
                    pos += 8 + len;
                    seal = Some(s);
                    continue;
                }
                None => {
                    tail = torn("malformed seal frame".to_string());
                    break;
                }
            }
        }
        pos += 8 + len;
        digest = chain_next(&digest, payload);
        records.push(RawRecord {
            payload: payload.to_vec(),
            end_offset: pos as u64,
        });
    }

    Ok(ReadJournal {
        records,
        seal,
        tail,
        digest,
    })
}

/// Reads a journal and checks its attestation seal: the journal must be
/// clean (no torn tail), sealed, and the seal's record count and chain
/// digest must match what recomputation finds.
///
/// # Errors
///
/// Read errors propagate; a torn tail is [`JournalError::Corrupt`]
/// (an attested journal has no business being torn); a missing seal is
/// [`JournalError::Unsealed`]; a disagreeing seal is
/// [`JournalError::AttestationMismatch`].
pub fn verify_journal(path: &Path) -> Result<Seal, JournalError> {
    let journal = read_journal(path)?;
    if let TailStatus::Torn { offset, reason } = journal.tail {
        return Err(JournalError::Corrupt { offset, reason });
    }
    let Some(seal) = journal.seal else {
        return Err(JournalError::Unsealed);
    };
    let intact = journal.records.len() as u64;
    if seal.records != intact {
        return Err(JournalError::AttestationMismatch {
            reason: format!("seal pins {} records, journal holds {intact}", seal.records),
        });
    }
    if seal.digest != journal.digest {
        return Err(JournalError::AttestationMismatch {
            reason: format!(
                "seal digest {} != recomputed {}",
                hex::encode(&seal.digest),
                hex::encode(&journal.digest)
            ),
        });
    }
    Ok(seal)
}

/// The append-only journal writer.
///
/// Every append writes one complete frame and flushes it to the OS
/// before returning, so a crash between appends never loses an
/// acknowledged record and a crash *during* an append leaves exactly
/// the torn tail [`read_journal`] knows how to skip. An armed
/// [`CrashPlan`] turns the writer into its own fault injector: the Nth
/// armed append is refused before any bytes are written and the writer
/// poisons itself, which is how tests and CI kill a campaign at an
/// exact record boundary.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    records: u64,
    digest: [u8; 32],
    armed: Option<(CrashPlan, u64)>,
    killed: Option<u64>,
    sealed: bool,
}

impl JournalWriter {
    /// Creates a journal at `path`, replacing any file there, and writes
    /// the file header. No crash plan is armed yet —
    /// [`JournalWriter::arm`] it after the records that must always
    /// survive (the campaign header) are down. An old file is removed,
    /// never truncated: truncating a file written a moment before makes
    /// ext4 (`auto_da_alloc`) push its delayed blocks to disk first.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the old file cannot be removed (a
    /// directory is left untouched) or the new one created or written.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let mut file = match std::fs::remove_file(path) {
            Err(e) if e.kind() != ErrorKind::NotFound => Err(e),
            _ => OpenOptions::new().write(true).create_new(true).open(path),
        }
        .map_err(|e| JournalError::Io {
            context: "create journal",
            reason: e.to_string(),
        })?;
        file.write_all(&MAGIC)
            .and_then(|()| file.write_all(&VERSION.to_le_bytes()))
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io {
                context: "write journal header",
                reason: e.to_string(),
            })?;
        Ok(Self {
            file,
            records: 0,
            digest: chain_start(),
            armed: None,
            killed: None,
            sealed: false,
        })
    }

    /// Reopens an existing, unsealed journal for appending: keeps the
    /// first `keep_records` intact records, truncates everything after
    /// them (torn tail included), and positions the writer at the new
    /// end with the chain digest recomputed.
    ///
    /// # Errors
    ///
    /// Read errors propagate; [`JournalError::Sealed`] if the journal
    /// already carries an attestation seal; [`JournalError::Corrupt`]
    /// if fewer than `keep_records` records survived on disk;
    /// [`JournalError::Io`] if truncation fails.
    pub fn resume(path: &Path, keep_records: u64) -> Result<Self, JournalError> {
        let journal = read_journal(path)?;
        if journal.seal.is_some() {
            return Err(JournalError::Sealed);
        }
        let intact = journal.records.len() as u64;
        if keep_records > intact {
            let offset = journal
                .records
                .last()
                .map_or(FILE_HEADER_BYTES, |r| r.end_offset);
            return Err(JournalError::Corrupt {
                offset,
                reason: format!("resume must keep {keep_records} records, only {intact} intact"),
            });
        }
        let Ok(keep) = usize::try_from(keep_records) else {
            return Err(JournalError::TooLarge {
                declared: keep_records,
            });
        };
        let truncate_at = if keep == 0 {
            FILE_HEADER_BYTES
        } else {
            journal.records[keep - 1].end_offset
        };
        let mut digest = chain_start();
        for record in &journal.records[..keep] {
            digest = chain_next(&digest, &record.payload);
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| JournalError::Io {
                context: "open journal for resume",
                reason: e.to_string(),
            })?;
        file.set_len(truncate_at)
            .and_then(|_| file.seek(SeekFrom::Start(truncate_at)))
            .map_err(|e| JournalError::Io {
                context: "truncate torn tail",
                reason: e.to_string(),
            })?;
        Ok(Self {
            file,
            records: keep_records,
            digest,
            armed: None,
            killed: None,
            sealed: false,
        })
    }

    /// Arms a [`CrashPlan`]: appends from now on count toward its kill
    /// point. Arming again restarts the count.
    pub fn arm(&mut self, plan: CrashPlan) {
        self.armed = Some((plan, 0));
    }

    /// Records appended so far (the seal frame is not a record).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The running chain digest over everything appended so far.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// The running chain digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        hex::encode(&self.digest)
    }

    /// Whether the writer died at an injected kill point, and at which
    /// armed append.
    #[must_use]
    pub fn kill_record(&self) -> Option<u64> {
        self.killed
    }

    /// Counts this armed append and kills the writer if the plan says
    /// so — before any bytes are written.
    fn check_kill(&mut self) -> Result<(), JournalError> {
        if let Some((plan, count)) = &mut self.armed {
            *count += 1;
            if plan.kills(*count) {
                let record = *count;
                self.killed = Some(record);
                return Err(JournalError::KillPoint { record });
            }
        }
        Ok(())
    }

    /// Writes one complete frame and flushes it.
    fn write_frame(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let Ok(len) = u32::try_from(payload.len()) else {
            return Err(JournalError::TooLarge {
                declared: payload.len() as u64,
            });
        };
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.flush())
            .map_err(|e| JournalError::Io {
                context: "append record",
                reason: e.to_string(),
            })
    }

    /// Appends one record: `[u32 len][u32 crc32][payload]`, flushed
    /// before returning. Returns the record's 1-based index.
    ///
    /// # Errors
    ///
    /// [`JournalError::KillPoint`] if the armed [`CrashPlan`] kills
    /// this append (the writer stays poisoned afterwards);
    /// [`JournalError::Sealed`] after [`JournalWriter::seal`];
    /// [`JournalError::InvalidRecord`] for an empty payload or one
    /// impersonating the seal frame; [`JournalError::TooLarge`] above
    /// [`MAX_RECORD_LEN`]; [`JournalError::Io`] on write failure.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, JournalError> {
        if let Some(record) = self.killed {
            return Err(JournalError::KillPoint { record });
        }
        if self.sealed {
            return Err(JournalError::Sealed);
        }
        if payload.is_empty() {
            return Err(JournalError::InvalidRecord {
                reason: "empty payload",
            });
        }
        if payload.starts_with(&SEAL_MAGIC) {
            return Err(JournalError::InvalidRecord {
                reason: "payload impersonates the seal frame",
            });
        }
        if payload.len() as u64 > MAX_RECORD_LEN {
            return Err(JournalError::TooLarge {
                declared: payload.len() as u64,
            });
        }
        self.check_kill()?;
        self.write_frame(payload)?;
        self.digest = chain_next(&self.digest, payload);
        self.records += 1;
        Ok(self.records)
    }

    /// Writes the attestation seal — record count plus chain digest —
    /// and closes the journal to further appends. Returns the sealed
    /// digest.
    ///
    /// The seal itself counts as an armed append for kill-point
    /// purposes: a campaign can be killed on its very last write.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`JournalWriter::append`].
    pub fn seal(&mut self) -> Result<[u8; 32], JournalError> {
        if let Some(record) = self.killed {
            return Err(JournalError::KillPoint { record });
        }
        if self.sealed {
            return Err(JournalError::Sealed);
        }
        self.check_kill()?;
        let mut payload = Vec::with_capacity(SEAL_PAYLOAD_LEN);
        payload.extend_from_slice(&SEAL_MAGIC);
        payload.extend_from_slice(&self.records.to_le_bytes());
        payload.extend_from_slice(&self.digest);
        self.write_frame(&payload)?;
        self.sealed = true;
        Ok(self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, deterministic-per-process temp path — no ambient
    /// randomness, no wall clock.
    fn temp_journal(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ugc-journal-{}-{tag}-{n}.wal", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The definition the table is derived from, one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_definition() {
        // Every single byte, then payloads of every length up to a few
        // table rows' worth from a fixed generator (SplitMix64).
        for byte in 0..=255u8 {
            assert_eq!(crc32(&[byte]), crc32_bitwise(&[byte]), "byte {byte}");
        }
        let mut state = 0x5eed_c2c3_u64;
        let mut payload = Vec::new();
        for len in 0..600usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            payload.push((z ^ (z >> 31)).to_le_bytes()[0]);
            assert_eq!(payload.len(), len + 1);
            assert_eq!(crc32(&payload), crc32_bitwise(&payload), "len {}", len + 1);
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_table_matches_the_bitwise_definition_on_any_bytes(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            proptest::prop_assert_eq!(crc32(&payload), crc32_bitwise(&payload));
        }
    }

    #[test]
    fn a_version_1_journal_is_refused() {
        // Journals of every earlier version: same magic, same frames,
        // another version word. Version 1 counted the wire's old bytes,
        // version 2 wrote a round as several records, version 3 wrote
        // fixed-width integers, version 4 wrote five cost counters.
        let path = temp_journal("v1");
        for version in 1..VERSION {
            let mut writer = JournalWriter::create(&path).unwrap();
            writer.append(b"\x01round").unwrap();
            writer.seal().unwrap();
            drop(writer);
            let mut bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes[8..12], VERSION.to_le_bytes());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let refused = JournalError::NotAJournal {
                reason: format!("unsupported version {version} (this build reads {VERSION})"),
            };
            assert_eq!(read_journal(&path), Err(refused.clone()));
            assert_eq!(verify_journal(&path), Err(refused.clone()));
            assert_eq!(JournalWriter::resume(&path, 1).map(|_| ()), Err(refused));
        }
        cleanup(&path);
    }

    #[test]
    fn round_trips_records_and_digest() {
        let path = temp_journal("roundtrip");
        let mut writer = JournalWriter::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> = (1u8..=5).map(|i| vec![i; usize::from(i) * 3]).collect();
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(writer.append(p).unwrap(), i as u64 + 1);
        }
        let live_digest = writer.digest();

        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.tail, TailStatus::Clean);
        assert_eq!(journal.seal, None);
        let read_back: Vec<Vec<u8>> = journal.records.iter().map(|r| r.payload.clone()).collect();
        assert_eq!(read_back, payloads);
        assert_eq!(journal.digest, live_digest);
        cleanup(&path);
    }

    #[test]
    fn seal_and_verify_round_trip() {
        let path = temp_journal("seal");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01one").unwrap();
        writer.append(b"\x02two").unwrap();
        let digest = writer.seal().unwrap();
        assert_eq!(writer.append(b"\x03"), Err(JournalError::Sealed));

        let seal = verify_journal(&path).unwrap();
        assert_eq!(seal.records, 2);
        assert_eq!(seal.digest, digest);
        cleanup(&path);
    }

    #[test]
    fn unsealed_journal_fails_verification() {
        let path = temp_journal("unsealed");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01").unwrap();
        assert_eq!(verify_journal(&path), Err(JournalError::Unsealed));
        cleanup(&path);
    }

    #[test]
    fn every_truncation_point_reads_back_a_clean_prefix() {
        // The torn-tail contract, exhaustively: chop the file at every
        // byte length and the reader must return some prefix of the
        // records without ever erroring or panicking.
        let path = temp_journal("torn");
        let mut writer = JournalWriter::create(&path).unwrap();
        for i in 1u8..=4 {
            writer.append(&vec![i; usize::from(i) * 5]).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 12..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let journal = read_journal(&path).unwrap();
            for (i, record) in journal.records.iter().enumerate() {
                let i = u8::try_from(i).unwrap() + 1;
                assert_eq!(record.payload, vec![i; usize::from(i) * 5]);
            }
            if cut < full.len() {
                assert!(
                    matches!(journal.tail, TailStatus::Torn { .. }) || journal.records.len() < 4,
                    "cut at {cut} lost data silently"
                );
            }
        }
        cleanup(&path);
    }

    #[test]
    fn corrupted_payload_is_a_torn_tail_not_a_panic() {
        let path = temp_journal("bitflip");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01clean").unwrap();
        writer.append(b"\x02dirty").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.records.len(), 1, "first record must survive");
        match journal.tail {
            TailStatus::Torn { reason, .. } => assert!(reason.contains("checksum")),
            TailStatus::Clean => panic!("bit flip went undetected"),
        }
        cleanup(&path);
    }

    #[test]
    fn non_journals_are_rejected_not_misparsed() {
        let path = temp_journal("magic");
        std::fs::write(&path, b"definitely not a journal file").unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::NotAJournal { .. })
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::NotAJournal { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn kill_point_refuses_the_nth_armed_append_and_poisons() {
        let path = temp_journal("kill");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01header-ish").unwrap();
        writer.arm(CrashPlan::at(3));
        assert!(writer.append(b"\x02a").is_ok());
        assert!(writer.append(b"\x03b").is_ok());
        assert_eq!(
            writer.append(b"\x04c"),
            Err(JournalError::KillPoint { record: 3 })
        );
        // Poisoned: the campaign stays dead.
        assert_eq!(
            writer.append(b"\x05d"),
            Err(JournalError::KillPoint { record: 3 })
        );
        assert_eq!(writer.seal(), Err(JournalError::KillPoint { record: 3 }));
        assert_eq!(writer.kill_record(), Some(3));

        // Nothing of the killed append reached the disk.
        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.tail, TailStatus::Clean);
        assert_eq!(journal.records.len(), 3);
        cleanup(&path);
    }

    #[test]
    fn seal_counts_as_an_armed_append_for_kill_points() {
        let path = temp_journal("killseal");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.arm(CrashPlan::at(2));
        writer.append(b"\x01only").unwrap();
        assert_eq!(writer.seal(), Err(JournalError::KillPoint { record: 2 }));
        assert_eq!(verify_journal(&path), Err(JournalError::Unsealed));
        cleanup(&path);
    }

    #[test]
    fn resume_truncates_torn_tail_and_continues_the_chain() {
        let path = temp_journal("resume");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01keep me").unwrap();
        writer.append(b"\x02keep me too").unwrap();
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x99, 0x00, 0x00, 0x00, 0xde, 0xad]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&path).unwrap().tail,
            TailStatus::Torn { .. }
        ));

        let mut resumed = JournalWriter::resume(&path, 2).unwrap();
        assert_eq!(resumed.records(), 2);
        resumed.append(b"\x03appended after resume").unwrap();
        let digest = resumed.seal().unwrap();

        // The resumed file is clean and its chain matches an
        // uninterrupted writer producing the same records.
        let seal = verify_journal(&path).unwrap();
        assert_eq!(seal.records, 3);
        let clean = temp_journal("resume-ref");
        let mut reference = JournalWriter::create(&clean).unwrap();
        reference.append(b"\x01keep me").unwrap();
        reference.append(b"\x02keep me too").unwrap();
        reference.append(b"\x03appended after resume").unwrap();
        assert_eq!(reference.seal().unwrap(), digest);
        cleanup(&path);
        cleanup(&clean);
    }

    #[test]
    fn resume_can_drop_intact_records_too() {
        // Round-atomic recovery keeps only committed rounds: resume may
        // be told to keep fewer records than are intact on disk.
        let path = temp_journal("resume-drop");
        let mut writer = JournalWriter::create(&path).unwrap();
        for i in 1u8..=5 {
            writer.append(&[i]).unwrap();
        }
        let resumed = JournalWriter::resume(&path, 2).unwrap();
        assert_eq!(resumed.records(), 2);
        drop(resumed);
        let journal = read_journal(&path).unwrap();
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.tail, TailStatus::Clean);
        cleanup(&path);
    }

    #[test]
    fn resume_refuses_sealed_journals_and_impossible_keeps() {
        let path = temp_journal("resume-guard");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01").unwrap();
        assert!(matches!(
            JournalWriter::resume(&path, 5),
            Err(JournalError::Corrupt { .. })
        ));
        writer.seal().unwrap();
        assert_eq!(
            JournalWriter::resume(&path, 1).map(|_| ()),
            Err(JournalError::Sealed)
        );
        cleanup(&path);
    }

    #[test]
    fn appends_validate_payloads() {
        let path = temp_journal("validate");
        let mut writer = JournalWriter::create(&path).unwrap();
        assert!(matches!(
            writer.append(b""),
            Err(JournalError::InvalidRecord { .. })
        ));
        let mut impostor = SEAL_MAGIC.to_vec();
        impostor.push(7);
        assert!(matches!(
            writer.append(&impostor),
            Err(JournalError::InvalidRecord { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn tampered_seal_fails_attestation() {
        let path = temp_journal("tamper");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(b"\x01attested").unwrap();
        writer.seal().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one digest byte inside the seal payload (the last byte),
        // recomputing the frame CRC so only the attestation can object.
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let seal_start = bytes.len() - SEAL_PAYLOAD_LEN;
        let fixed_crc = crc32(&bytes[seal_start..]);
        bytes[seal_start - 4..seal_start].copy_from_slice(&fixed_crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            verify_journal(&path),
            Err(JournalError::AttestationMismatch { .. })
        ));
        cleanup(&path);
    }
}
