//! Durable state: typed mutation records, periodic compacted
//! snapshots, and crash recovery over the [`crate::wal`] frame format.
//!
//! The daemon's persistent state is *not* the registry and hypothesis
//! store themselves but the mutation history that produced them:
//!
//! * a `register` record carries the structure's canonical graph text
//!   (its content hash is re-derived on replay);
//! * a `solve` record carries the `(structure, sample, config)` triple
//!   plus its hypothesis id, the [`crate::proto::hypothesis_id`] of
//!   that triple. The hypothesis itself is **derivable** — the learner
//!   is deterministic — so replay re-runs the solve, re-derives the id,
//!   and provably reconstructs bit-identical state, the same invariant
//!   E19/E21 gate over the network.
//!
//! Records are protocol-JSON payloads inside WAL frames, and the
//! snapshot file uses the *same* framing: a snapshot is just a
//! compacted log (registers, then solves, each deduplicated and in
//! first-logged order), so one reader handles both files. Keeping the
//! log order keeps replay order, and with it the arena-relative type
//! ids a restarted server hands out. Compaction writes `snapshot.tmp`, fsyncs
//! it, renames it over `snapshot.log`, fsyncs the directory, then
//! truncates `wal.log` — crash-safe at every step because rename is
//! atomic and the WAL is only emptied after the snapshot is durable.
//!
//! Data-dir layout:
//!
//! ```text
//! <data-dir>/snapshot.log   compacted history (WAL framing)
//! <data-dir>/wal.log        mutations since the last compaction
//! ```
//!
//! The result cache is deliberately volatile: entries are pure
//! functions of durable state and re-warm on replay for free.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::proto::{fnv1a64, hex64, parse_hex64, Json, Request};
use crate::wal::{encode_frame, read_log, Wal};

/// Snapshot file name inside the data dir.
pub const SNAPSHOT_FILE: &str = "snapshot.log";
/// WAL file name inside the data dir.
pub const WAL_FILE: &str = "wal.log";
/// Default appends between compactions.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

/// One durable mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum DurableRecord {
    /// A structure was registered (canonical graph text).
    Register {
        /// The canonical graph text whose FNV-1a hash addresses it.
        graph_text: String,
    },
    /// A hypothesis was learned: the solve request that produced it
    /// plus its id. Replay re-runs the request, which re-derives the
    /// same id and reconstructs the identical store entry.
    Solve {
        /// The hypothesis id: [`crate::proto::hypothesis_id`] of
        /// `request`. A record logged by a counter-id build carries a
        /// different id, which replay keeps answering as an alias.
        id: u64,
        /// The originating request; always `Request::Solve` with no
        /// trace context (tracing never changes answers).
        request: Request,
    },
}

impl DurableRecord {
    /// Serialize to the frame payload (one compact protocol-JSON line).
    pub fn to_bytes(&self) -> Vec<u8> {
        let json = match self {
            DurableRecord::Register { graph_text } => Json::obj([
                ("record", Json::str("register")),
                ("graph", Json::str(graph_text.clone())),
            ]),
            DurableRecord::Solve { id, request } => Json::obj([
                ("record", Json::str("solve")),
                ("id", Json::str(hex64(*id))),
                ("req", request.to_json()),
            ]),
        };
        json.render().into_bytes()
    }

    /// Parse a frame payload back into a record.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let json = Json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        match json.get("record").and_then(Json::as_str) {
            Some("register") => Ok(DurableRecord::Register {
                graph_text: json
                    .get("graph")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("register record without graph text".into()))?
                    .to_string(),
            }),
            Some("solve") => {
                let id = json
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("solve record without id".into()))
                    .and_then(|s| parse_hex64(s).map_err(|e| bad(e.0)))?;
                let request = Request::from_json(
                    json.get("req")
                        .ok_or_else(|| bad("solve record without req".into()))?,
                )
                .map_err(|e| bad(e.0))?;
                if !matches!(request, Request::Solve { .. }) {
                    return Err(bad("solve record req is not a solve".into()));
                }
                Ok(DurableRecord::Solve { id, request })
            }
            other => Err(bad(format!("unknown durable record {other:?}"))),
        }
    }
}

/// Counters describing one recovery (surfaced through the metrics
/// snapshot as `wal_records_replayed` / `snapshot_loads` /
/// `torn_tail_truncations`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records replayed from the snapshot file.
    pub snapshot_records: u64,
    /// Records replayed from the WAL proper.
    pub wal_records: u64,
    /// 1 if a snapshot file was present and loaded.
    pub snapshot_loads: u64,
    /// Torn tails discarded (snapshot and WAL counted separately).
    pub torn_tail_truncations: u64,
}

impl RecoveryStats {
    /// Total records replayed into the fresh state.
    pub fn records_replayed(&self) -> u64 {
        self.snapshot_records + self.wal_records
    }
}

/// The open durability layer of one daemon: the live WAL plus the
/// in-memory compaction table (registers deduplicated by content hash,
/// solves by id, each kept in first-logged order) that becomes the next
/// snapshot.
pub struct Durability {
    dir: PathBuf,
    wal: Wal,
    snapshot_every: usize,
    appends_since_compact: usize,
    registers: Vec<String>,
    register_hashes: HashSet<u64>,
    solves: Vec<DurableRecord>,
    solve_ids: HashSet<u64>,
}

impl Durability {
    /// Open (or create) the data dir, recover the valid record history
    /// — truncating a torn WAL tail — and return the layer together
    /// with the records to replay, in application order.
    pub fn open(
        dir: &Path,
        snapshot_every: usize,
    ) -> io::Result<(Self, Vec<DurableRecord>, RecoveryStats)> {
        fs::create_dir_all(dir)?;
        let mut stats = RecoveryStats::default();

        let snap = read_log(&dir.join(SNAPSHOT_FILE))?;
        if snap.valid_len > 0 {
            stats.snapshot_loads = 1;
        }
        if snap.torn {
            stats.torn_tail_truncations += 1;
        }
        let wal_read = read_log(&dir.join(WAL_FILE))?;
        if wal_read.torn {
            stats.torn_tail_truncations += 1;
        }
        stats.snapshot_records = snap.records.len() as u64;
        stats.wal_records = wal_read.records.len() as u64;

        let mut records = Vec::with_capacity(snap.records.len() + wal_read.records.len());
        for payload in snap.records.iter().chain(wal_read.records.iter()) {
            records.push(DurableRecord::from_bytes(payload)?);
        }

        let wal = Wal::open(&dir.join(WAL_FILE), wal_read.valid_len)?;
        let mut this = Self {
            dir: dir.to_path_buf(),
            wal,
            snapshot_every: snapshot_every.max(1),
            appends_since_compact: wal_read.records.len(),
            registers: Vec::new(),
            register_hashes: HashSet::new(),
            solves: Vec::new(),
            solve_ids: HashSet::new(),
        };
        for r in &records {
            this.absorb(r);
        }
        Ok((this, records, stats))
    }

    /// Absorb a record into the compaction table.
    fn absorb(&mut self, record: &DurableRecord) {
        match record {
            DurableRecord::Register { graph_text } => {
                if self.register_hashes.insert(fnv1a64(graph_text.as_bytes())) {
                    self.registers.push(graph_text.clone());
                }
            }
            DurableRecord::Solve { id, .. } => {
                if self.solve_ids.insert(*id) {
                    self.solves.push(record.clone());
                }
            }
        }
    }

    /// Append one mutation: fsync'd into the WAL, folded into the
    /// compaction table, and — every `snapshot_every` appends —
    /// compacted into a fresh snapshot. Returns whether a compaction
    /// ran (tests and metrics care; callers may ignore it).
    pub fn append(&mut self, record: &DurableRecord) -> io::Result<bool> {
        self.wal.append(&record.to_bytes())?;
        self.absorb(record);
        self.appends_since_compact += 1;
        if self.appends_since_compact >= self.snapshot_every {
            self.compact()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Write the compaction table as a fresh snapshot (tmp file +
    /// atomic rename + directory fsync), then truncate the WAL.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            for text in &self.registers {
                let rec = DurableRecord::Register {
                    graph_text: text.clone(),
                };
                f.write_all(&encode_frame(&rec.to_bytes()))?;
            }
            for rec in &self.solves {
                f.write_all(&encode_frame(&rec.to_bytes()))?;
            }
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Make the rename itself durable before dropping the WAL.
        File::open(&self.dir)?.sync_all()?;
        self.wal.reset()?;
        self.appends_since_compact = 0;
        Ok(())
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SolverSpec;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "folearn-snap-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn solve_rec(id: u64, structure: u64) -> DurableRecord {
        DurableRecord::Solve {
            id,
            request: Request::Solve {
                structure,
                examples: vec![crate::proto::WireExample {
                    tuple: vec![0, 1],
                    label: true,
                }],
                ell: 1,
                q: 1,
                epsilon: 0.25,
                solver: SolverSpec::default_brute(),
                trace: None,
            },
        }
    }

    #[test]
    fn records_round_trip_through_bytes() {
        let recs = [
            DurableRecord::Register {
                graph_text: "colors Röd\nvertices 2\nedge 0 1\n".to_string(),
            },
            solve_rec(7, 0xdead_beef),
        ];
        for r in recs {
            assert_eq!(DurableRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        assert!(DurableRecord::from_bytes(b"{}").is_err());
        assert!(DurableRecord::from_bytes(b"\xff\xfe").is_err());
    }

    #[test]
    fn fresh_dir_recovers_nothing_then_remembers_appends() {
        let dir = tmp_dir("fresh");
        let (mut d, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats, RecoveryStats::default());
        let reg = DurableRecord::Register {
            graph_text: "colors A\nvertices 1\n".to_string(),
        };
        assert!(!d.append(&reg).unwrap());
        assert!(!d.append(&solve_rec(1, 2)).unwrap());
        drop(d);
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(records, vec![reg, solve_rec(1, 2)]);
        assert_eq!(stats.wal_records, 2);
        assert_eq!(stats.snapshot_loads, 0);
        assert_eq!(stats.torn_tail_truncations, 0);
    }

    #[test]
    fn compaction_moves_history_into_the_snapshot() {
        let dir = tmp_dir("compact");
        let reg = DurableRecord::Register {
            graph_text: "colors A\nvertices 1\n".to_string(),
        };
        {
            let (mut d, _, _) = Durability::open(&dir, 3).unwrap();
            d.append(&reg).unwrap();
            d.append(&reg).unwrap(); // duplicate register compacts away
            assert!(d.append(&solve_rec(1, 2)).unwrap(), "third append compacts");
        }
        let wal_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, 0, "WAL empties after compaction");
        let (_, records, stats) = Durability::open(&dir, 3).unwrap();
        assert_eq!(stats.snapshot_loads, 1);
        assert_eq!(stats.wal_records, 0);
        // Compacted: the duplicate register collapsed to one record.
        assert_eq!(records, vec![reg, solve_rec(1, 2)]);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_counted() {
        let dir = tmp_dir("torn");
        {
            let (mut d, _, _) = Durability::open(&dir, 1000).unwrap();
            d.append(&solve_rec(1, 2)).unwrap();
            d.append(&solve_rec(2, 2)).unwrap();
        }
        // Tear the final record mid-frame.
        let wal_path = dir.join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(records, vec![solve_rec(1, 2)]);
        assert_eq!(stats.torn_tail_truncations, 1);
        // The tear is physically gone: a re-open sees a clean log.
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(stats.torn_tail_truncations, 0);
    }

    #[test]
    fn solves_compact_in_first_logged_order_one_record_per_id() {
        let dir = tmp_dir("order");
        {
            let (mut d, _, _) = Durability::open(&dir, 3).unwrap();
            d.append(&solve_rec(5, 9)).unwrap();
            d.append(&solve_rec(3, 9)).unwrap();
            d.append(&solve_rec(5, 9)).unwrap(); // re-logged; triggers compaction
        }
        let (_, records, _) = Durability::open(&dir, 3).unwrap();
        assert_eq!(records, vec![solve_rec(5, 9), solve_rec(3, 9)]);
    }
}
