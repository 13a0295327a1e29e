//! By-value memory bound (`ci.sh`, stage "by-value memory bound"): a
//! by-value graph is held as bytes wherever it is not being executed on,
//! and a reply only until its caller has it. A reply cache that went
//! back to keeping decoded trees, or to keeping every reply until
//! eviction, or a caller that kept its arguments after the reply, shows
//! here before it shows in the benchmark's `peak_rss_mb`.

mod common;

use common::{cluster, gauge, teardown};
use fargo_core::Value;
use fargo_wire::testgen::graph_records;

#[test]
fn reply_caches_hold_wire_bytes_within_their_bound_and_callers_hold_nothing() {
    const CALLS: usize = 2_000;
    let (_net, _reg, cores) = cluster(3);
    let chunks = [
        cores[0].new_complet_at("core1", "GraphChunk", &[]).unwrap(),
        cores[0].new_complet_at("core2", "GraphChunk", &[]).unwrap(),
    ];
    // What one `scan(256)` reply costs on the wire, envelope included.
    let scan_wire = fargo_wire::encode_value(&Value::List(graph_records(256, 0))).len() + 64;
    assert!(scan_wire > 8_000, "{scan_wire}");

    let mut pipelined = Vec::new();
    for call in 0..CALLS {
        let chunk = &chunks[(call / 2) % 2];
        if call % 2 == 0 {
            let got = chunk.call("scan", &[]).unwrap();
            assert_eq!(got.as_list().map(<[Value]>::len), Some(256));
        } else {
            let batch = Value::List(graph_records(256, call as i64));
            pipelined.push(chunk.call_async("put_batch", &[batch]));
        }
        if pipelined.len() == 16 {
            for pending in pipelined.drain(..) {
                assert_eq!(pending.wait().unwrap(), Value::I64(256));
            }
        }
    }
    for pending in pipelined {
        assert_eq!(pending.wait().unwrap(), Value::I64(256));
    }

    assert_eq!(cores[0].inflight_rpcs(), 0, "every issued request settled");
    for core in &cores[1..] {
        let entries = gauge(core, "fargo_dedup_cache_entries");
        let bytes = gauge(core, "fargo_dedup_cache_bytes");
        // Each data Core served half the calls and remembers them all:
        // the keys are kept, at-most-once is unchanged.
        assert!(entries >= (CALLS / 2) as f64, "{}: {entries}", core.name());
        // But only the replies of calls still unanswered when this
        // Core's last request left core0 keep their bytes — the sync
        // call and at most 16 pipelined ones — each as encoded bytes no
        // larger than a scan reply on the wire (its decoded tree is
        // several times that).
        assert!(
            bytes <= 17.0 * scan_wire as f64,
            "{}: {bytes} bytes in {entries} entries",
            core.name()
        );
    }
    teardown(&cores);
}
