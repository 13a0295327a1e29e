//! Write-ahead-log memory bound (`ci.sh`, stage "write-ahead-log memory
//! bound"): compaction streams the log a frame at a time and copies the
//! surviving frames as they were written, so what it holds at once is
//! the live image, not the log. A compaction that went back to reading
//! the whole file, or to decoding every record of it into one list,
//! shows here — exactly, counted at the allocator — before it shows in
//! the benchmark's `peak_rss_mb` on `durable-tcp`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{fast_network, test_config};
use fargo_core::{
    define_complet, CompletRef, CompletRegistry, Core, CoreConfig, RefDescriptor, Value,
};

thread_local! {
    /// Bytes live on this thread and the most that were: the Core's own
    /// threads must not be counted.
    static HEAP: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = HEAP.try_with(|h| {
        let (live, peak) = h.get();
        h.set((live + bytes, peak.max(live + bytes)));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` had live at once on this thread, above what was
/// live when it started.
fn peak_during(f: impl FnOnce()) -> isize {
    let (start, _) = HEAP.get();
    HEAP.set((start, start));
    f();
    HEAP.get().1 - start
}

define_complet! {
    /// A complet whose whole state is one 2 KiB string, replaced by
    /// every `put` — the benchmark's durable chunk, one record wide.
    complet Blob {
        state {
            data: String = String::new(),
        }
        fn put(&mut self, _ctx, args) {
            self.data = args.first().and_then(Value::as_str).unwrap_or("").to_owned();
            Ok(Value::Null)
        }
        fn get(&mut self, _ctx, _args) {
            Ok(Value::from(self.data.as_str()))
        }
    }
}

const COMPLETS: usize = 16;
const PUTS: usize = 2_048;
const STATE: usize = 2_048;

/// What the `i`th put writes: 2 KiB, different from put to put.
fn state(i: usize) -> String {
    format!("{i:08}").repeat(STATE / 8)
}

/// The test's log directory, removed however the test ends.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn compacting_a_4_mib_log_holds_at_most_1_mib() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("fargo-wal-footprint-{}", std::process::id())));
    let dir = &scratch.0;
    let _ = std::fs::remove_dir_all(dir);
    // No compaction but the one measured: the monitor never starts one.
    let config = || -> CoreConfig {
        test_config()
            .with_wal_dir(dir)
            .with_wal_fsync(false)
            .with_wal_compact_records(u64::MAX)
    };
    let reg = CompletRegistry::new();
    Blob::register(&reg);
    let spawn = || {
        Core::builder(&fast_network(), "core0")
            .registry(&reg)
            .config(config())
            .spawn()
            .unwrap()
    };
    let core = spawn();
    let blobs: Vec<_> = (0..COMPLETS)
        .map(|_| core.new_complet("Blob", &[]).unwrap())
        .collect();
    for i in 0..PUTS {
        blobs[i % COMPLETS]
            .call("put", &[Value::from(state(i))])
            .unwrap();
    }
    let log = dir.join("core0.wal");
    let logged = std::fs::metadata(&log).unwrap().len();
    assert!(logged >= 4 << 20, "{logged} bytes logged");

    let peak = peak_during(|| core.wal_compact_now());
    assert!(
        peak <= 1 << 20,
        "{peak} bytes live at once compacting {logged}"
    );

    // The image is the 16 newest states, and a restart installs them.
    let compacted = std::fs::metadata(&log).unwrap().len();
    assert!(compacted < (COMPLETS * (STATE + 128)) as u64, "{compacted}");
    let ids: Vec<_> = blobs.iter().map(|b| b.id()).collect();
    core.stop();
    let core = spawn();
    let report = core.recovery_report().expect("recovery ran");
    assert_eq!(
        (report.replayed, report.corrupt),
        (COMPLETS, 0),
        "{report:?}"
    );
    for (c, &id) in ids.iter().enumerate() {
        let blob = core.stub(CompletRef::from_descriptor(RefDescriptor::link(
            id,
            "Blob",
            core.node().index(),
        )));
        let newest = PUTS - COMPLETS + c;
        assert_eq!(blob.call("get", &[]).unwrap(), Value::from(state(newest)));
    }
    core.stop();
}
