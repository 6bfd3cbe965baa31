//! The append-only write-ahead log: length-prefixed, checksummed
//! record frames on disk.
//!
//! One frame is `[len: u32 LE][checksum: u64 LE][payload: len bytes]`
//! where the checksum is FNV-1a over the payload — the same hash that
//! content-addresses structures on the wire, so the whole durability
//! story leans on one primitive. Frames are appended and fsync'd one
//! mutation at a time; nothing in the format is ever updated in place.
//!
//! Crash tolerance is the classic WAL contract: a crash mid-append
//! leaves at most one *torn* frame at the tail (short header, short
//! payload, or checksum mismatch). [`read_log`] scans frames until the
//! first tear, returns the records of the valid prefix plus the byte
//! length of that prefix, and the opener truncates the file there —
//! every byte-length prefix of a valid log recovers cleanly (asserted
//! exhaustively by the truncation-sweep test in `tests/wal_prop.rs`).
//!
//! What goes *inside* the frames (protocol-JSON mutation records,
//! snapshot compaction) is [`crate::snapshot`]'s business; this module
//! only knows about bytes.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::proto::fnv1a64;

/// Bytes of frame header: 4-byte length + 8-byte checksum.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a single record payload. A length field above this is
/// treated as a torn/corrupt frame rather than an allocation request —
/// real records (a graph text or one solve request) are far smaller.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Encode one payload as a wire frame (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The result of scanning a log file.
pub struct LogRead {
    /// Payloads of every intact frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where the opener truncates).
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed — a torn tail.
    pub torn: bool,
}

/// Scan `path` frame by frame, stopping at the first torn or corrupt
/// frame. A missing file reads as an empty, untorn log.
pub fn read_log(path: &Path) -> io::Result<LogRead> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(header) = buf.get(at..at + HEADER_LEN) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let want = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        if len > MAX_RECORD_BYTES {
            break;
        }
        let Some(payload) = buf.get(at + HEADER_LEN..at + HEADER_LEN + len) else {
            break;
        };
        if fnv1a64(payload) != want {
            break;
        }
        records.push(payload.to_vec());
        at += HEADER_LEN + len;
    }
    Ok(LogRead {
        records,
        valid_len: at as u64,
        torn: at < buf.len(),
    })
}

/// An open log file accepting fsync'd appends.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Byte length of the intact frames: where a failed append's
    /// partial frame is cut off again.
    len: u64,
    /// A failed append may have left a partial frame past `len`.
    dirty: bool,
    /// Test seam: the next append writes half its frame and fails, as
    /// a full disk would.
    #[cfg(test)]
    pub(crate) fail_next_append: bool,
}

impl Wal {
    /// Open `path` for appending, truncating it to `valid_len` first —
    /// the byte length [`read_log`] validated — so a torn tail from a
    /// previous crash is physically removed before new frames land.
    pub fn open(path: &Path, valid_len: u64) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        let mut this = Self {
            path: path.to_path_buf(),
            file,
            len: valid_len,
            dirty: false,
            #[cfg(test)]
            fail_next_append: false,
        };
        this.file.seek_to_end()?;
        Ok(this)
    }

    /// Append one record frame and fsync it. When this returns `Ok`,
    /// the record survives `kill -9` and power loss. When it fails,
    /// the next append first cuts the log back to its intact frames: a
    /// reader stops at the first torn frame, so a frame written behind
    /// one would be lost on recovery.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.dirty {
            self.truncate_to(self.len)?;
        }
        let frame = encode_frame(payload);
        self.dirty = true;
        self.write_synced(&frame)?;
        self.dirty = false;
        self.len += frame.len() as u64;
        Ok(())
    }

    fn write_synced(&mut self, frame: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_append) {
            self.file.write_all(&frame[..frame.len() / 2])?;
            return Err(io::Error::other("injected append failure"));
        }
        self.file.write_all(frame)?;
        self.file.sync_data()
    }

    /// Truncate the log to empty (after its contents were folded into a
    /// snapshot) and make the truncation durable.
    pub fn reset(&mut self) -> io::Result<()> {
        self.truncate_to(0)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.file.seek_to_end()?;
        self.len = len;
        self.dirty = false;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Tiny extension so `Wal` can position at the tail without importing
/// `Seek` at every call site.
trait SeekToEnd {
    fn seek_to_end(&mut self) -> io::Result<u64>;
}

impl SeekToEnd for File {
    fn seek_to_end(&mut self) -> io::Result<u64> {
        use std::io::Seek;
        self.seek(io::SeekFrom::End(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "folearn-wal-{name}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn records_round_trip_in_order() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"one".to_vec(),
            vec![0u8; 1000],
            "graph: å∀x".as_bytes().to_vec(),
        ];
        {
            let mut wal = Wal::open(&path, 0).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
        }
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, payloads);
        assert!(!read.torn);
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let read = read_log(&path).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.valid_len, 0);
        assert!(!read.torn);
    }

    #[test]
    fn every_byte_prefix_recovers_the_valid_frames() {
        let path = tmp("prefix");
        let _ = std::fs::remove_file(&path);
        let payloads = [&b"alpha"[..], &b"beta"[..], &b"gamma-gamma"[..]];
        {
            let mut wal = Wal::open(&path, 0).unwrap();
            for p in payloads {
                wal.append(p).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let frame_ends: Vec<usize> = payloads
            .iter()
            .scan(0usize, |at, p| {
                *at += HEADER_LEN + p.len();
                Some(*at)
            })
            .collect();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_log(&path).unwrap();
            let intact = frame_ends.iter().filter(|&&e| e <= cut).count();
            let valid = if intact == 0 { 0 } else { frame_ends[intact - 1] };
            assert_eq!(read.records.len(), intact, "cut at {cut}");
            assert_eq!(read.valid_len, valid as u64, "cut at {cut}");
            assert_eq!(read.torn, cut > valid, "torn flag wrong at cut {cut}");
            for (i, r) in read.records.iter().enumerate() {
                assert_eq!(r.as_slice(), payloads[i]);
            }
        }
    }

    #[test]
    fn corrupt_checksum_truncates_there() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, 0).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"mangled").unwrap();
            wal.append(b"unreachable").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second frame.
        let second_payload_at = HEADER_LEN + 4 + HEADER_LEN;
        bytes[second_payload_at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"good".to_vec()]);
        assert!(read.torn);
        assert_eq!(read.valid_len, (HEADER_LEN + 4) as u64);
        // Re-opening at the valid length drops the damage and appends work.
        let mut wal = Wal::open(&path, read.valid_len).unwrap();
        wal.append(b"after").unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"good".to_vec(), b"after".to_vec()]);
        assert!(!read.torn);
    }

    #[test]
    fn a_failed_append_is_cut_off_before_the_next_one_lands() {
        let path = tmp("failed");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0).unwrap();
        wal.append(b"kept").unwrap();
        wal.fail_next_append = true;
        assert!(wal.append(b"half-written").is_err());
        assert!(read_log(&path).unwrap().torn, "the failure left a partial frame");
        wal.append(b"retried").unwrap();
        let read = read_log(&path).unwrap();
        assert_eq!(read.records, vec![b"kept".to_vec(), b"retried".to_vec()]);
        assert!(!read.torn);
    }

    #[test]
    fn oversize_length_field_is_a_tear_not_an_allocation() {
        let path = tmp("oversize");
        let mut frame = encode_frame(b"x");
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        std::fs::write(&path, &frame).unwrap();
        let read = read_log(&path).unwrap();
        assert!(read.records.is_empty());
        assert!(read.torn);
    }
}
