//! Table I: the modelled CPU configuration (Intel Xeon Gold 6140).
//! A pure config dump — deterministic and cheap, part of the smoke set.

use crate::report::Table;
use iat_platform::PlatformConfig;
use iat_runner::{JobCtx, JobSpec, Registry};
use serde_json::Value;

const GROUP: &str = "table1";

fn run(ctx: &mut JobCtx) -> Result<Value, String> {
    let c = PlatformConfig::xeon_6140();
    let mut t = Table::new(
        "Table I — Intel Xeon Gold 6140 configuration (as modelled)",
        &["item", "value"],
    );
    t.row(&[
        "cores".into(),
        format!("{} cores, {:.1} GHz", c.cores, c.freq_ghz),
    ]);
    t.row(&[
        "L2".into(),
        format!(
            "{}-way {} KB private, per core",
            c.l2.ways(),
            c.l2.total_bytes() / 1024
        ),
    ]);
    t.row(&[
        "LLC".into(),
        format!(
            "{}-way {:.2} MB non-inclusive shared, {} slices",
            c.llc.ways(),
            c.llc.total_bytes() as f64 / (1024.0 * 1024.0),
            c.llc.slices()
        ),
    ]);
    t.row(&[
        "LLC way size".into(),
        format!("{:.2} MB", c.llc.way_bytes() as f64 / (1024.0 * 1024.0)),
    ]);
    t.row(&[
        "DDIO default".into(),
        "2 ways (the top two), write allocate".into(),
    ]);
    t.row(&[
        "latencies".into(),
        format!(
            "L2 {} cy, LLC {} cy, DRAM {} cy",
            c.latency.l2_cycles, c.latency.llc_cycles, c.latency.memory_cycles
        ),
    ]);
    t.row(&[
        "simulation".into(),
        format!(
            "epoch {} ms, time scale 1/{}, {} chunks",
            c.epoch_ns / 1_000_000,
            c.time_scale,
            c.chunks
        ),
    ]);
    t.write_to(ctx);
    Ok(Value::Null)
}

pub(crate) fn register(reg: &mut Registry) {
    reg.add(JobSpec::new(GROUP, GROUP, run).smoke());
}
