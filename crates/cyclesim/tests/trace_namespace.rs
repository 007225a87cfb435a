//! The trace namespace seen from outside: concurrent cold lookups of one
//! workload compile each distinct trace exactly once, and pre-warming the
//! store replaces entries an older format version left behind.
//!
//! Both tests read process-global counters or configure the process-global
//! trace store, so they take turns.

use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
use mesh_cyclesim::{cache_stats, ensure_stored, prewarm, set_store, store_stats, Pacing};
use mesh_workloads::{MemPattern, Segment, TaskProgram, Workload};
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

/// Distinct streams of a workload built by [`workload`].
const DISTINCT: usize = 3;

/// Four tasks over [`DISTINCT`] streams (the last repeats the first; even
/// pacing on identical processors keys them alike), salted so no other
/// test compiles them.
fn workload(salt: u64) -> (Workload, MachineConfig) {
    let mut w = Workload::new();
    for t in [0, 1, 2, 0] {
        w.add_task(TaskProgram::new(format!("t{t}")).with_segment(
            Segment::work(40_000 + salt).with_pattern(MemPattern::Random {
                base: t * 0x10_0000,
                span: 64 * 1024,
                count: 20_000,
                seed: salt ^ t,
            }),
        ));
    }
    let cache = CacheConfig::direct_mapped(1024, 32).unwrap();
    let machine = MachineConfig::homogeneous(4, ProcConfig::new(cache), BusConfig::new(4));
    (w, machine)
}

#[test]
fn concurrent_cold_lookups_compile_each_distinct_trace_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (w, machine) = workload(0x51F1);
    let threads = 8;
    let barrier = Barrier::new(threads);
    let before = cache_stats().compiles;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                barrier.wait();
                prewarm(&w, &machine, Pacing::Even);
            });
        }
    });
    assert_eq!(
        cache_stats().compiles - before,
        DISTINCT as u64,
        "{threads} racing lookups of {DISTINCT} distinct traces"
    );
}

fn trace_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    files
}

#[test]
fn ensure_stored_replaces_entries_of_another_format_version() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("mesh-trace-namespace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    set_store(Some(&dir), None);
    let (w, machine) = workload(0xE45);
    let resident = cache_stats().entries;

    ensure_stored(&w, &machine, Pacing::Even);
    let files = trace_files(&dir);
    assert_eq!(files.len(), DISTINCT);
    assert_eq!(cache_stats().entries, resident, "nothing kept in memory");
    let current: Vec<Vec<u8>> = files.iter().map(|f| std::fs::read(f).unwrap()).collect();

    // Rewrite every entry's format version (header bytes 4..8).
    for (file, bytes) in files.iter().zip(&current) {
        let mut stale = bytes.clone();
        stale[4] ^= 0xFF;
        std::fs::write(file, stale).unwrap();
    }
    let publishes = store_stats().publishes;
    ensure_stored(&w, &machine, Pacing::Even);
    assert_eq!(
        store_stats().publishes - publishes,
        DISTINCT as u64,
        "entries of another version are republished"
    );
    for (file, bytes) in files.iter().zip(&current) {
        assert_eq!(&std::fs::read(file).unwrap(), bytes);
    }

    // Current entries are left alone.
    let publishes = store_stats().publishes;
    ensure_stored(&w, &machine, Pacing::Even);
    assert_eq!(store_stats().publishes, publishes);

    set_store(None, None);
    let _ = std::fs::remove_dir_all(&dir);
}
