//! A counting [`WalStorage`] wrapper around [`FileStorage`].
//!
//! Every byte and every call passes straight through to the file
//! storage; the wrapper only counts appends, syncs and checkpoint
//! segments, and times each call.

use infogram::exec::wal::{FileStorage, WalStorage};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The payload prefix of a serialized checkpoint record. A checkpoint
/// is always the first frame of a fresh segment, after the frame's
/// 4-byte length and 4-byte checksum.
const CHECKPOINT_TAG: &[u8] = b"CKPT\x1f";
const FRAME_HEADER: usize = 8;

/// Running totals. Read with [`Counters::snapshot`].
#[derive(Debug, Default)]
pub struct Counters {
    appends: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    /// When set, per-call durations are kept for the traced run.
    sampling: AtomicBool,
    append_ns: Mutex<Vec<u64>>,
    sync_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Append calls.
    pub appends: u64,
    /// Bytes appended (all segments).
    pub bytes: u64,
    /// Sync (fsync) calls.
    pub syncs: u64,
    /// Checkpoint segments written.
    pub checkpoints: u64,
    /// Bytes of checkpoint frames.
    pub checkpoint_bytes: u64,
}

impl Totals {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            syncs: self.syncs - earlier.syncs,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
        }
    }
}

impl Counters {
    /// Current totals.
    pub fn snapshot(&self) -> Totals {
        Totals {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
        }
    }

    /// Start or stop keeping per-call durations.
    pub fn set_sampling(&self, on: bool) {
        self.sampling.store(on, Ordering::Relaxed);
    }

    /// Per-call append durations (ns) kept while sampling.
    pub fn append_ns(&self) -> Vec<u64> {
        self.append_ns.lock().expect("append sample lock").clone()
    }

    /// Per-call sync durations (ns) kept while sampling.
    pub fn sync_ns(&self) -> Vec<u64> {
        self.sync_ns.lock().expect("sync sample lock").clone()
    }

    fn sample(&self, into: &Mutex<Vec<u64>>, start: Instant) {
        if self.sampling.load(Ordering::Relaxed) {
            let ns = start.elapsed().as_nanos() as u64;
            into.lock().expect("sample lock").push(ns);
        }
    }
}

/// [`FileStorage`] with counters.
#[derive(Debug)]
pub struct CountingStorage {
    inner: FileStorage,
    counters: Arc<Counters>,
}

impl CountingStorage {
    /// Wrap a file storage; the counters are shared with the caller.
    pub fn new(inner: FileStorage, counters: Arc<Counters>) -> Self {
        CountingStorage { inner, counters }
    }
}

impl WalStorage for CountingStorage {
    fn segments(&self) -> io::Result<Vec<u64>> {
        self.inner.segments()
    }

    fn read(&self, seg: u64) -> io::Result<Vec<u8>> {
        self.inner.read(seg)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.append(seg, bytes);
        self.counters.sample(&self.counters.append_ns, start);
        let c = &self.counters;
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if bytes.get(FRAME_HEADER..FRAME_HEADER + CHECKPOINT_TAG.len()) == Some(CHECKPOINT_TAG) {
            c.checkpoints.fetch_add(1, Ordering::Relaxed);
            c.checkpoint_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn sync(&self, seg: u64) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.sync(seg);
        self.counters.sample(&self.counters.sync_ns, start);
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn remove(&self, seg: u64) -> io::Result<()> {
        self.inner.remove(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram::exec::wal::{FrameWal, Wal, WalConfig, WalEvent};
    use infogram::proto::message::JobStateCode;
    use infogram::sim::SimTime;
    use std::path::{Path, PathBuf};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_tmp")
            .join(format!("storage-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Drive one log through enough jobs to rotate and checkpoint.
    fn drive(storage: Arc<dyn WalStorage>) {
        let cfg = WalConfig {
            segment_max_bytes: 16 * 1024,
            checkpoint_every_events: 300,
            ..WalConfig::default()
        };
        let wal = Wal::with_config(
            Box::new(FrameWal::open(storage, cfg.clone()).expect("open")),
            cfg,
        );
        for id in 1..=400u64 {
            wal.commit(
                SimTime::from_millis(id),
                &[WalEvent::Submitted {
                    job_id: id,
                    rsl: format!("(executable=simwork)(arguments=0 {})", id % 4),
                    owner: "/O=Grid/OU=ANL/CN=Gregor".to_string(),
                    account: "gregor".to_string(),
                }],
            )
            .expect("commit submit");
            wal.record(
                SimTime::from_millis(id),
                &WalEvent::StateChanged {
                    job_id: id,
                    state: JobStateCode::Active,
                },
            );
            wal.commit(
                SimTime::from_millis(id),
                &[WalEvent::Finished {
                    job_id: id,
                    state: JobStateCode::Done,
                    exit_code: Some(0),
                    wall_seconds: 0.0,
                }],
            )
            .expect("commit finish");
        }
    }

    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                let e = e.expect("entry");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("read segment"),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn counting_wrapper_writes_exactly_what_file_storage_writes() {
        let plain_dir = scratch_dir("plain");
        let counted_dir = scratch_dir("counted");
        drive(Arc::new(
            FileStorage::open(plain_dir.join("wal")).expect("plain storage"),
        ));
        let counters = Arc::new(Counters::default());
        drive(Arc::new(CountingStorage::new(
            FileStorage::open(counted_dir.join("wal")).expect("counted storage"),
            Arc::clone(&counters),
        )));

        let plain = files(&plain_dir);
        let counted = files(&counted_dir);
        assert!(!plain.is_empty());
        assert_eq!(plain, counted, "same segment names and bytes");

        let t = counters.snapshot();
        assert!(t.checkpoints >= 1, "the drive cuts checkpoints");
        // Bytes still on disk are the live segments; every earlier
        // segment was reclaimed by a checkpoint. Live bytes can only be
        // a suffix of what was appended.
        let live: u64 = counted.iter().map(|(_, b)| b.len() as u64).sum();
        assert!(t.bytes >= live);
        // The newest segment starts with a checkpoint frame.
        let newest = counted.last().expect("a segment");
        assert_eq!(&newest.1[8..13], CHECKPOINT_TAG);
        // 800 durable commits + the checkpoints each fsync once.
        assert_eq!(t.syncs, 800 + t.checkpoints);

        let _ = std::fs::remove_dir_all(&plain_dir);
        let _ = std::fs::remove_dir_all(&counted_dir);
    }

    #[test]
    fn counted_bytes_equal_file_bytes_without_reclaim() {
        let dir = scratch_dir("noreclaim");
        let counters = Arc::new(Counters::default());
        let storage = CountingStorage::new(
            FileStorage::open(dir.join("wal")).expect("storage"),
            Arc::clone(&counters),
        );
        storage.append(1, b"hello ").expect("append");
        storage.append(1, b"world").expect("append");
        storage.sync(1).expect("sync");
        storage.append(2, b"!").expect("append");
        let on_disk: u64 = files(&dir).iter().map(|(_, b)| b.len() as u64).sum();
        let t = counters.snapshot();
        assert_eq!(t.bytes, on_disk);
        assert_eq!((t.appends, t.syncs, t.checkpoints), (3, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
