//! Table II: the IAT parameters.
//! A pure config dump — deterministic and cheap, part of the smoke set.

use crate::report::Table;
use iat::IatConfig;
use iat_runner::{JobCtx, JobSpec, Registry};
use serde_json::Value;

const GROUP: &str = "table2";

fn run(ctx: &mut JobCtx) -> Result<Value, String> {
    let c = IatConfig::paper();
    let mut t = Table::new(
        "Table II — IAT parameters (paper defaults)",
        &["name", "value"],
    );
    t.row(&[
        "THRESHOLD_STABLE".into(),
        format!("{:.0}%", c.threshold_stable * 100.0),
    ]);
    t.row(&[
        "THRESHOLD_MISS_LOW".into(),
        format!("{:.0}M/s", c.threshold_miss_low_per_s / 1e6),
    ]);
    t.row(&[
        "DDIO_WAYS_MIN/MAX".into(),
        format!("{}/{}", c.ddio_ways_min, c.ddio_ways_max),
    ]);
    t.row(&[
        "Sleep interval".into(),
        format!("{} second", c.sleep_interval_ns / 1_000_000_000),
    ]);
    t.write_to(ctx);
    ctx.outln(
        "\nNote: when driving the time-scaled simulation, THRESHOLD_MISS_LOW is divided\n\
         by the platform's time scale (see PlatformConfig::scale_rate).",
    );
    Ok(Value::Null)
}

pub(crate) fn register(reg: &mut Registry) {
    reg.add(JobSpec::new(GROUP, GROUP, run).smoke());
}
