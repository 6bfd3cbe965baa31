//! Property tests for the durability layer: arbitrary mutation
//! sequences logged through [`Durability`] and replayed must equal
//! direct application (modulo compaction, which is exactly dedup of
//! registers plus first-write-wins per solve id, both in first-logged
//! order), the log must hold each key once, and recovery must
//! succeed — yielding a clean record prefix — at *every* byte-length
//! prefix of a valid log (crash-at-any-point tolerance).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use folearn::TypeMode;
use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{fnv1a64, Request, SolverSpec, WireExample};
use folearn_server::snapshot::{DurableRecord, Durability, SNAPSHOT_FILE, WAL_FILE};
use folearn_server::wal::HEADER_LEN;
use proptest::collection;
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch data dir per proptest case (cases run in sequence
/// but must never see each other's files).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "folearn-walprop-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference semantics of the durable state: registers dedup'd in
/// first-seen order, solves dedup'd by id in first-seen order (the
/// first record of an id wins).
#[derive(Debug, Default, PartialEq)]
struct Model {
    registers: Vec<String>,
    solves: Vec<DurableRecord>,
}

impl Model {
    fn apply(&mut self, r: &DurableRecord) {
        match r {
            DurableRecord::Register { graph_text } => {
                if !self.registers.iter().any(|g| g == graph_text) {
                    self.registers.push(graph_text.clone());
                }
            }
            DurableRecord::Solve { id, .. } => {
                let seen = self
                    .solves
                    .iter()
                    .any(|s| matches!(s, DurableRecord::Solve { id: i, .. } if i == id));
                if !seen {
                    self.solves.push(r.clone());
                }
            }
        }
    }

    fn applied(records: &[DurableRecord]) -> Self {
        let mut m = Self::default();
        for r in records {
            m.apply(r);
        }
        m
    }
}

/// The first record of each key, in append order: what a log that
/// skips already-durable keys holds.
fn distinct(records: &[DurableRecord]) -> Vec<DurableRecord> {
    let mut seen = std::collections::HashSet::new();
    records
        .iter()
        .filter(|r| {
            seen.insert(match r {
                DurableRecord::Register { graph_text } => (0, fnv1a64(graph_text.as_bytes())),
                DurableRecord::Solve { id, .. } => (1, *id),
            })
        })
        .cloned()
        .collect()
}

/// Bytes of the frames of `records`.
fn frame_bytes(records: &[DurableRecord]) -> usize {
    records.iter().map(|r| HEADER_LEN + r.to_bytes().len()).sum()
}

fn record_strategy() -> impl Strategy<Value = DurableRecord> {
    // Mutation mix via a discriminant (the vendored proptest has no
    // `prop_oneof!`): roughly 1/3 registers from a small text pool so
    // duplicates (the dedup path) actually occur — newlines and
    // non-ASCII stress the codec — and 2/3 solves with clashing ids.
    (0u32..3, 0usize..6, 1u64..12, 0u64..4, 0usize..3, 0u32..1000).prop_map(
        |(kind, pool, id, structure, ell, eps_mil)| {
            if kind == 0 {
                return DurableRecord::Register {
                    graph_text: format!("graph-{pool}: å∀\n{}", "v ".repeat(pool)),
                };
            }
            DurableRecord::Solve {
                id,
                request: Request::Solve {
                    structure,
                    examples: vec![
                        WireExample {
                            tuple: vec![structure as u32, 1],
                            label: true,
                        },
                        WireExample {
                            tuple: vec![2],
                            label: false,
                        },
                    ],
                    ell,
                    q: ell + 1,
                    epsilon: f64::from(eps_mil) / 1000.0,
                    solver: if kind == 1 {
                        SolverSpec::Nd
                    } else {
                        SolverSpec::Brute {
                            mode: TypeMode::Local { r: 2 },
                            threads: Some(1),
                            prune: true,
                            engine: EvalEngine::Vm,
                        }
                    },
                    trace: None,
                },
            }
        },
    )
}

proptest! {
    // Every append fsyncs twice, so keep the case count modest; the
    // interesting coverage is the record mix and the compaction points,
    // not raw volume.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Log → replay ≡ direct application, across compaction boundaries:
    /// a log without dead frames is never compacted on its own, so a
    /// quarter of the appends are followed by a forced compaction.
    #[test]
    fn replay_equals_direct_application(
        steps in collection::vec((record_strategy(), 0u32..4), 0..24),
        snapshot_every in 1usize..8,
    ) {
        let dir = fresh_dir("replay");
        let records: Vec<DurableRecord> = steps.iter().map(|(r, _)| r.clone()).collect();
        {
            let (mut durable, replayed, stats) = Durability::open(&dir, snapshot_every).unwrap();
            prop_assert!(replayed.is_empty(), "fresh dir replays nothing");
            prop_assert_eq!(stats.records_replayed(), 0);
            for (r, compact) in &steps {
                durable.append(r).unwrap();
                if *compact == 0 {
                    durable.compact().unwrap();
                }
            }
        }
        let (_durable, replayed, stats) = Durability::open(&dir, snapshot_every).unwrap();
        prop_assert_eq!(Model::applied(&replayed), Model::applied(&records));
        prop_assert_eq!(stats.records_replayed() as usize, replayed.len());
        prop_assert_eq!(stats.torn_tail_truncations, 0, "a clean log has no tear");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each key is logged once: the data dir holds exactly the frames
    /// of the distinct records, however often a key is appended and
    /// whatever the compaction cadence.
    #[test]
    fn disk_bytes_equal_the_frames_of_the_distinct_records(
        records in collection::vec(record_strategy(), 0..24),
        snapshot_every in 1usize..8,
    ) {
        let dir = fresh_dir("bytes");
        let wrote = {
            let (mut durable, _, _) = Durability::open(&dir, snapshot_every).unwrap();
            records.iter().filter(|r| durable.append(r).unwrap()).count()
        };
        let unique = distinct(&records);
        prop_assert_eq!(wrote, unique.len(), "append reports each frame it wrote");
        let on_disk = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
        prop_assert_eq!(
            (on_disk(SNAPSHOT_FILE) + on_disk(WAL_FILE)) as usize,
            frame_bytes(&unique)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cut the WAL at an arbitrary byte offset: recovery must succeed
    /// and yield an exact record *prefix* of what was appended, and the
    /// recovered dir must reopen clean (the tear is truncated away, not
    /// rediscovered forever).
    #[test]
    fn arbitrary_truncation_recovers_a_clean_prefix(
        records in collection::vec(record_strategy(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = fresh_dir("cut");
        {
            // No compaction: every record stays in the WAL, so the
            // appended sequence is byte-addressable for the cut.
            let (mut durable, _, _) = Durability::open(&dir, usize::MAX).unwrap();
            for r in &records {
                durable.append(r).unwrap();
            }
        }
        // Repeated keys were skipped: the log holds the distinct records.
        let records = distinct(&records);
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((full.len() as f64) * cut_frac) as usize;
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let (durable, replayed, stats) = Durability::open(&dir, usize::MAX).unwrap();
        drop(durable);
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()], "recovered an exact prefix");
        let intact_bytes = frame_bytes(&records[..replayed.len()]);
        prop_assert_eq!(
            stats.torn_tail_truncations,
            u64::from(cut > intact_bytes),
            "tear counted iff the cut landed mid-frame"
        );

        let (_durable, again, stats) = Durability::open(&dir, usize::MAX).unwrap();
        prop_assert_eq!(&again[..], &replayed[..], "recovery is idempotent");
        prop_assert_eq!(stats.torn_tail_truncations, 0, "the tear was physically removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn register(text: &str) -> DurableRecord {
    DurableRecord::Register {
        graph_text: text.to_string(),
    }
}

fn solve(id: u64) -> DurableRecord {
    DurableRecord::Solve {
        id,
        request: Request::Solve {
            structure: 0xfeed,
            examples: vec![WireExample {
                tuple: vec![1, 2],
                label: true,
            }],
            ell: 1,
            q: 1,
            epsilon: 0.25,
            solver: SolverSpec::Nd,
            trace: None,
        },
    }
}

/// The exhaustive sweep the WAL's crash contract promises: with a
/// compacted snapshot in place and a live WAL tail, recovery succeeds
/// at *every* byte-length prefix of the WAL — snapshot records always
/// survive, the WAL contributes exactly its intact frames, and the torn
/// remainder is counted once and truncated physically.
#[test]
fn recovery_succeeds_at_every_wal_byte_prefix() {
    let dir = fresh_dir("sweep");
    let base = [register("alpha"), solve(1), register("beta")];
    let tail = [solve(2), register("gamma"), solve(3)];
    {
        let (mut durable, _, _) = Durability::open(&dir, usize::MAX).unwrap();
        for r in &base {
            durable.append(r).unwrap();
        }
        durable.compact().unwrap();
        for r in &tail {
            durable.append(r).unwrap();
        }
    }
    // The snapshot rewrites `base` in compacted order: registers, then
    // solves, each in first-seen order.
    let snapshot_records = [register("alpha"), register("beta"), solve(1)];
    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    let frame_ends: Vec<usize> = tail
        .iter()
        .scan(0usize, |at, r| {
            *at += HEADER_LEN + r.to_bytes().len();
            Some(*at)
        })
        .collect();
    assert_eq!(*frame_ends.last().unwrap(), full.len());

    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (durable, replayed, stats) = Durability::open(&dir, usize::MAX).unwrap();
        drop(durable);
        let intact = frame_ends.iter().filter(|&&e| e <= cut).count();
        let valid = if intact == 0 { 0 } else { frame_ends[intact - 1] };
        let expected: Vec<DurableRecord> = snapshot_records
            .iter()
            .chain(&tail[..intact])
            .cloned()
            .collect();
        assert_eq!(replayed, expected, "cut at {cut}");
        assert_eq!(stats.snapshot_records, 3, "cut at {cut}");
        assert_eq!(stats.wal_records as usize, intact, "cut at {cut}");
        assert_eq!(stats.snapshot_loads, 1, "cut at {cut}");
        assert_eq!(
            stats.torn_tail_truncations,
            u64::from(cut > valid),
            "cut at {cut}"
        );
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            valid as u64,
            "the torn tail is physically gone after recovery (cut at {cut})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
