//! `Llc::batch_flush` records one `llc.flush` span, carrying its `ops`
//! count, for every flush of at least 256 operations while the
//! process-wide tracer is armed, and none for smaller flushes or while
//! the tracer is off. The tracer is process-wide, so this binary holds a
//! single test.

use iat_cachesim::{AgentId, CacheGeometry, CoreOp, Llc, WayMask, LINE_BYTES};
use iat_telemetry::span;
use serde_json::Value;

#[test]
fn large_flushes_record_one_span_each() {
    let geom = CacheGeometry::tiny();
    let mask = WayMask::all(geom.ways());
    let mut llc = Llc::new(geom);
    let flush = |llc: &mut Llc, ops: u64| {
        for i in 0..ops {
            llc.batch_core_access(AgentId::new(1), mask, i * LINE_BYTES, CoreOp::Read);
        }
        llc.batch_flush();
    };

    // Not armed yet: nothing may reach the tracer installed below.
    flush(&mut llc, 1000);
    let tracer = span::install_global();
    for ops in [255, 256, 1000] {
        flush(&mut llc, ops);
    }

    let doc: Value = serde_json::from_str(&tracer.export_chrome_trace().expect("armed"))
        .expect("valid trace JSON");
    let flushes: Vec<u64> = doc["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|e| e["name"] == "llc.flush")
        .map(|e| {
            assert_eq!(e["cat"], "llc");
            e["args"]["ops"].as_u64().expect("ops arg")
        })
        .collect();
    assert_eq!(flushes, [256, 1000]);
}
