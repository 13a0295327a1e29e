//! What a record costs, decoded (counted at the allocator) and on the
//! wire (`ci.sh`, stage "by-value memory bound"). The benchmark's
//! `peak_rss_mb` and `wire_bytes_per_op` show the same things late and
//! noisily; this shows a regression of the map layout, of the decoder's
//! key sharing, of the in-node strings or of the codec's compact forms
//! exactly, on the record shape the benchmark's `graph-simnet` workload
//! uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fargo_wire::testgen::{graph_record, graph_records, TestRng};
use fargo_wire::{decode_value, decode_value_from_bytes, encode_value, Value, WireError};

thread_local! {
    /// Allocations made and bytes live on this thread: the test harness
    /// runs other threads, and they must not be counted.
    static COUNTS: Cell<(usize, isize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(allocs: usize, bytes: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNTS.try_with(|c| {
        let (a, b) = c.get();
        c.set((a + allocs, b + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `f` and the bytes of them its result keeps alive.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (allocs, live) = COUNTS.get();
    let out = f();
    let (allocs_after, live_after) = COUNTS.get();
    (out, allocs_after - allocs, live_after - live)
}

#[test]
fn a_decoded_record_costs_what_it_holds() {
    const RECORDS: usize = 256;
    let batch = Value::List(graph_records(RECORDS as i64, 0));
    let bytes = encode_value(&batch);
    assert!(bytes.len() < 64 * RECORDS, "{}", bytes.len());

    // Per record: the entry vector and the tag vector — `k` and the three
    // tags are short and live in their nodes; per batch: the list and one
    // allocation for each distinct key. A `String` per string made it 6
    // and 306 bytes, a tree node per record and a `String` per key 9 and
    // ~800. (`bytes` outlives the call, so freeing the input is not
    // counted.)
    let (decoded, allocs, live) = measured(|| decode_value_from_bytes(bytes.clone()).unwrap());
    assert_eq!(decoded, batch);
    assert_eq!(allocs, 2 * RECORDS + 4, "{allocs} allocations");
    assert!(live <= 300 * RECORDS as isize, "{live} bytes live");

    // A copy (a `scan` reply, state installed from arguments) shares the
    // keys of what it copies: two allocations a record and the list.
    let (copy, clone_allocs, clone_live) = measured(|| decoded.clone());
    assert_eq!(clone_allocs, 2 * RECORDS + 1, "a clone allocates no key");
    assert!(clone_live < live, "{clone_live} vs {live}");
    assert_eq!(copy, decoded);
}

/// A record stored over one of its own shape — what a `put_batch` of
/// the benchmark's graph does to each record it keeps — reuses the
/// target's entry vector and tag list: nothing is allocated, record or
/// batch, and the keys become the source's (the target's own may go). A
/// derived `clone_from` cloned afresh, two allocations a record.
#[test]
fn clone_from_onto_the_same_shape_allocates_nothing() {
    let mut stored = graph_record(1, 0);
    let incoming = graph_record(2, 1);
    let ((), allocs, live) = measured(|| stored.clone_from(&incoming));
    assert_eq!(stored, incoming);
    assert!(
        allocs == 0 && live <= 0,
        "one record: {allocs}, {live} bytes"
    );

    let mut stored = graph_records(256, 0);
    let incoming = graph_records(256, 1);
    let ((), allocs, live) = measured(|| stored.clone_from_slice(&incoming));
    assert_eq!(stored, incoming);
    assert!(allocs == 0 && live <= 0, "a batch: {allocs}, {live} bytes");

    // Another shape still comes out equal to its source.
    let mut stored = Value::List(graph_records(3, 0));
    for other in [
        Value::Null,
        Value::from("x"),
        Value::List(Vec::new()),
        graph_record(9, 9),
    ] {
        stored.clone_from(&other);
        assert_eq!(stored, other);
    }
}

/// What the benchmark's by-value graph costs on the wire: the first
/// record names its fields, the other 255 refer to its shape, and the
/// short strings and the tag list carry their lengths in their tags.
/// With every field name and length written out it was 62 bytes.
#[test]
fn a_record_of_a_batch_encodes_in_at_most_50_bytes() {
    const RECORDS: usize = 256;
    let bytes = encode_value(&Value::List(graph_records(RECORDS as i64, 0)));
    assert!(bytes.len() <= 50 * RECORDS, "{} bytes", bytes.len());
}

/// The decoder reserves at most 4,096 slots for a declared count it
/// cannot trust yet and doubles past that; the 3,192 slots (≈ 100 KB)
/// the doubling leaves over a 5,000-record list are given back.
#[test]
fn a_decoded_list_keeps_no_slack() {
    const RECORDS: usize = 5_000;
    let batch = Value::List(graph_records(RECORDS as i64, 0));
    let bytes = encode_value(&batch);
    let (decoded, _, live) = measured(|| decode_value_from_bytes(bytes.clone()).unwrap());
    let (copy, _, exact) = measured(|| decoded.clone());
    assert_eq!(copy, batch);
    // A clone is sized to its length; the decoded tree owns that plus
    // the three keys the clone shares.
    assert!(
        live - exact < 256,
        "{live} bytes decoded, {exact} bytes cloned"
    );
    let Value::List(records) = &decoded else {
        panic!("not a list");
    };
    assert_eq!(records.capacity(), RECORDS);
}

/// A string up to 22 bytes lives in its node and a longer one is one
/// allocation; either way it comes back as it went in. Seeded: `ci.sh`'s
/// three seeds, at the lengths around the bound, with multi-byte
/// characters at every offset — so one straddles byte 22.
#[test]
fn strings_roundtrip_across_the_inline_bound() {
    for seed in [7, 11, 23] {
        let rng = &mut TestRng(seed);
        for len in (0..64).chain([0, 21, 22, 23, 24].into_iter().cycle().take(64)) {
            // `len` bytes: ASCII, with a 2-, 3- or 4-byte character put
            // where it ends at or before `len`.
            let mut s = rng.string(len);
            s.extend(std::iter::repeat_n('x', len - s.len()));
            let wide = ['é', '€', '𝄞'][rng.below(3) as usize];
            if len >= wide.len_utf8() {
                let at = rng.below((len - wide.len_utf8()) as u64 + 1) as usize;
                s.replace_range(at..at + wide.len_utf8(), &wide.to_string());
            }
            assert_eq!(s.len(), len);
            let v = Value::from(s.as_str());
            assert_eq!(v, Value::from(s.clone()), "both constructors agree");
            let bytes = encode_value(&v);
            let (back, allocs, _) = measured(|| decode_value_from_bytes(bytes.clone()).unwrap());
            assert_eq!(back, v);
            assert_eq!(back.as_str(), Some(s.as_str()));
            assert_eq!(allocs, usize::from(len > 22), "{len} bytes");
            assert_eq!(encode_value(&back), bytes);
        }
    }
    // A character cut by the declared length is invalid UTF-8: refused,
    // whichever side of either bound it falls, before anything is copied.
    for len in [3, 22, 23, 31, 32, 40] {
        let s = format!("{}é", "a".repeat(len - 1));
        let at = usize::from(s.len() >= 32);
        let mut bytes = encode_value(&Value::from(s)).to_vec();
        // The length: in the tag below 32 bytes, else the one-byte
        // prefix after it; now mid-character.
        bytes[at] -= 1;
        bytes.pop();
        let (got, allocs, _) = measured(|| decode_value(&bytes));
        assert_eq!(got, Err(WireError::InvalidUtf8));
        assert_eq!(allocs, 1, "the copy of the input `decode_value` makes");
    }
}

/// A hostile compact form is refused before anything is allocated for
/// it: a shape index past the shapes registered, a shaped map with
/// fewer bytes left than it has values, a fixstr cut short or cut in a
/// character. Alone each allocates nothing; after a record, only that
/// record (its list, entries and keys) was allocated.
#[test]
fn hostile_compact_forms_allocate_nothing_for_themselves() {
    let decode = |input: &[u8]| {
        let input = bytes::Bytes::copy_from_slice(input);
        let (got, allocs, _) = measured(|| decode_value_from_bytes(input));
        assert!(got.is_err(), "{got:?}");
        allocs
    };
    // 0x0a: a shaped map, then its index; 0x2n: a fixstr of n bytes.
    for alone in [&[0x0a, 0][..], &[0x23, b'a', b'b'], &[0x22, b'a', 0xc3]] {
        assert_eq!(decode(alone), 0, "{alone:?}");
    }
    // A fixlist of 2, then {a: null, b: null}: shape 0.
    let record = [0x12, 8, 2, 1, b'a', 0, 1, b'b', 0];
    for (tail, allocs) in [(&[0x0a, 1, 0, 0][..], 4), (&[0x0a, 0, 0][..], 4)] {
        assert_eq!(decode(&[&record[..], tail].concat()), allocs, "{tail:?}");
    }
}
