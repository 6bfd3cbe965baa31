//! Durable state: typed mutation records, compacted snapshots, and
//! crash recovery over the [`crate::wal`] frame format.
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
//!   the fault and cluster tests assert over the network.
//!
//! Both keys are content addresses and no operation deletes or updates
//! what they name, so each is logged once: [`Durability::append`]
//! skips a record whose key (a register's content hash, a solve's id)
//! is already durable. A log written this way holds only live records.
//!
//! Records are protocol-JSON payloads inside WAL frames, and the
//! snapshot file uses the *same* framing: a snapshot is just a
//! compacted log (registers, then solves, each deduplicated and in
//! first-logged order), so one reader handles both files. Keeping the
//! log order keeps replay order, and with it the arena-relative type
//! ids a restarted server hands out. Compaction is the cleaning rule of
//! log-structured file systems: it runs only when dead frames (duplicate
//! keys, which only logs of older builds carry) outnumber live ones, so
//! a rewrite of the live records is paid for by at least as many dead
//! ones. It writes `snapshot.tmp`, fsyncs it, renames it over
//! `snapshot.log`, fsyncs the directory, then truncates `wal.log` —
//! crash-safe at every step because rename is atomic and the WAL is
//! only emptied after the snapshot is durable.
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
/// Default for the fewest appends between compaction checks.
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
    /// Frames in `snapshot.log` plus `wal.log`: the live table's
    /// records plus the dead duplicates an older build logged.
    frames_on_disk: usize,
    registers: Vec<String>,
    register_hashes: HashSet<u64>,
    solves: Vec<DurableRecord>,
    solve_ids: HashSet<u64>,
}

impl Durability {
    /// Open (or create) the data dir, recover the valid record history
    /// — truncating a torn WAL tail — and return the layer together
    /// with the records to replay, in application order. A history
    /// whose dead frames outnumber its live ones (a log of an older
    /// build that re-logged keys) is compacted here, off the request
    /// path, under the same rule as [`Durability::append`].
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
            frames_on_disk: records.len(),
            registers: Vec::new(),
            register_hashes: HashSet::new(),
            solves: Vec::new(),
            solve_ids: HashSet::new(),
        };
        for r in &records {
            this.absorb(r);
        }
        if this.garbage_dominates() {
            this.compact()?;
        }
        Ok((this, records, stats))
    }

    /// Whether the record's key is already in the compaction table.
    fn holds(&self, record: &DurableRecord) -> bool {
        match record {
            DurableRecord::Register { graph_text } => self
                .register_hashes
                .contains(&fnv1a64(graph_text.as_bytes())),
            DurableRecord::Solve { id, .. } => self.solve_ids.contains(id),
        }
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

    /// The compaction rule: at least `snapshot_every` appends since the
    /// last compaction, and more dead frames on disk than live ones.
    fn garbage_dominates(&self) -> bool {
        let live = self.registers.len() + self.solves.len();
        self.appends_since_compact >= self.snapshot_every && self.frames_on_disk > 2 * live
    }

    /// Log one mutation unless its key is already durable. A new record
    /// is fsync'd into the WAL and only then folded into the compaction
    /// table, so a failed append leaves the key unlogged and a retry
    /// writes it. Returns whether a frame was written.
    ///
    /// Every record written is live, so compaction never triggers on a
    /// log this build wrote; it reclaims only duplicates an older build
    /// left behind (see [`Durability::open`]). A compaction that fails
    /// after the record is durable is reported on stderr, not to the
    /// caller: the log it leaves is valid either way.
    pub fn append(&mut self, record: &DurableRecord) -> io::Result<bool> {
        if self.holds(record) {
            return Ok(false);
        }
        self.wal.append(&record.to_bytes())?;
        self.absorb(record);
        self.frames_on_disk += 1;
        self.appends_since_compact += 1;
        if self.garbage_dominates() {
            if let Err(e) = self.compact() {
                eprintln!("folearn-server: snapshot compaction failed: {e}");
            }
        }
        Ok(true)
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
        self.frames_on_disk = self.registers.len() + self.solves.len();
        Ok(())
    }

    /// Test seam: make the next WAL append fail halfway through its
    /// frame.
    #[cfg(test)]
    pub(crate) fn fail_next_append(&mut self) {
        self.wal.fail_next_append = true;
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
        assert!(d.append(&reg).unwrap());
        assert!(d.append(&solve_rec(1, 2)).unwrap());
        drop(d);
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(records, vec![reg, solve_rec(1, 2)]);
        assert_eq!(stats.wal_records, 2);
        assert_eq!(stats.snapshot_loads, 0);
        assert_eq!(stats.torn_tail_truncations, 0);
    }

    #[test]
    fn a_durable_key_is_never_logged_again() {
        let dir = tmp_dir("once");
        let reg = DurableRecord::Register {
            graph_text: "colors A\nvertices 1\n".to_string(),
        };
        let (mut d, _, _) = Durability::open(&dir, 1).unwrap();
        assert!(d.append(&reg).unwrap());
        assert!(d.append(&solve_rec(1, 2)).unwrap());
        let wal_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(!d.append(&reg).unwrap(), "a register is keyed by its content hash");
        assert!(!d.append(&solve_rec(1, 7)).unwrap(), "a solve is keyed by its id");
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), wal_len);
        assert!(
            !dir.join(SNAPSHOT_FILE).exists(),
            "a log without dead frames is never compacted"
        );
        drop(d);
        let (_, records, _) = Durability::open(&dir, 1).unwrap();
        assert_eq!(records, vec![reg, solve_rec(1, 2)]);
    }

    #[test]
    fn a_failed_append_leaves_the_key_unlogged_and_the_retry_writes_it() {
        let dir = tmp_dir("failed");
        let (mut d, _, _) = Durability::open(&dir, 1000).unwrap();
        d.append(&solve_rec(1, 2)).unwrap();
        d.fail_next_append();
        assert!(d.append(&solve_rec(2, 2)).is_err());
        assert!(!d.holds(&solve_rec(2, 2)), "a failed append is not absorbed");
        assert!(d.append(&solve_rec(2, 2)).unwrap(), "the retry writes the record");
        drop(d);
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(records, vec![solve_rec(1, 2), solve_rec(2, 2)]);
        assert_eq!(stats.torn_tail_truncations, 0);
    }

    #[test]
    fn compaction_moves_history_into_the_snapshot() {
        let dir = tmp_dir("compact");
        let reg = DurableRecord::Register {
            graph_text: "colors A\nvertices 1\n".to_string(),
        };
        {
            let (mut d, _, _) = Durability::open(&dir, 1000).unwrap();
            d.append(&solve_rec(5, 9)).unwrap();
            d.append(&reg).unwrap();
            d.append(&solve_rec(3, 9)).unwrap();
            d.compact().unwrap();
        }
        let wal_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, 0, "WAL empties after compaction");
        let (_, records, stats) = Durability::open(&dir, 1000).unwrap();
        assert_eq!(stats.snapshot_loads, 1);
        assert_eq!(stats.wal_records, 0);
        // Registers first, then solves in first-logged order.
        assert_eq!(records, vec![reg, solve_rec(5, 9), solve_rec(3, 9)]);
    }

    #[test]
    fn an_older_log_is_compacted_once_dead_frames_outnumber_live_ones() {
        let dir = tmp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        // Logs as an older build wrote them: it re-logged a solve after
        // each cache eviction.
        let older_log = |records: &[DurableRecord]| {
            let mut wal = Wal::open(&dir.join(WAL_FILE), 0).unwrap();
            for r in records {
                wal.append(&r.to_bytes()).unwrap();
            }
        };
        let (a, b) = (solve_rec(1, 2), solve_rec(2, 2));
        older_log(&[a.clone(), b.clone(), a.clone(), a.clone()]);
        let (_, records, _) = Durability::open(&dir, 1).unwrap();
        assert_eq!(records.len(), 4);
        assert!(!dir.join(SNAPSHOT_FILE).exists(), "two dead frames against two live");

        older_log(&[a.clone(), b.clone(), a.clone(), a.clone(), b.clone()]);
        let (_, records, _) = Durability::open(&dir, 6).unwrap();
        assert_eq!(records.len(), 5);
        assert!(
            !dir.join(SNAPSHOT_FILE).exists(),
            "three dead frames, but fewer appends than the cadence asks"
        );
        let (_, records, _) = Durability::open(&dir, 5).unwrap();
        assert_eq!(records.len(), 5, "the caller still replays what was read");
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let (_, records, stats) = Durability::open(&dir, 5).unwrap();
        assert_eq!(records, vec![a, b]);
        assert_eq!(stats.snapshot_records, 2);
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
}
