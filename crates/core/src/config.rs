//! IAT parameters (the paper's Table II).

/// Tunable parameters of the IAT daemon.
///
/// Defaults are the paper's Table II values. `threshold_miss_low_per_s` is
/// a *rate* on real hardware (1M DDIO misses/s); when driving a time-scaled
/// simulation, scale it with `PlatformConfig::scale_rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IatConfig {
    /// Relative change between consecutive intervals below which an event
    /// is considered stable (Table II: 3%).
    pub threshold_stable: f64,
    /// DDIO miss rate (per second) below which the I/O is not pressing the
    /// LLC (Table II: 1M/s).
    pub threshold_miss_low_per_s: f64,
    /// Minimum LLC ways for DDIO (Table II: 1).
    pub ddio_ways_min: u8,
    /// Maximum LLC ways for DDIO (Table II: 6).
    pub ddio_ways_max: u8,
    /// Polling interval in nanoseconds (Table II: 1 s).
    pub sleep_interval_ns: u64,
}

impl IatConfig {
    /// The paper's Table II parameters.
    pub fn paper() -> Self {
        IatConfig {
            threshold_stable: 0.03,
            threshold_miss_low_per_s: 1_000_000.0,
            ddio_ways_min: 1,
            ddio_ways_max: 6,
            sleep_interval_ns: 1_000_000_000,
        }
    }

    /// Polling interval in seconds.
    pub fn sleep_interval_s(&self) -> f64 {
        self.sleep_interval_ns as f64 / 1e9
    }

    /// Validates parameter sanity against an LLC with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ddio_ways_min` is zero, the min exceeds the max, or the
    /// max exceeds the associativity.
    pub fn validate(&self, ways: u8) {
        assert!(self.ddio_ways_min >= 1, "DDIO needs at least one way");
        assert!(self.ddio_ways_min <= self.ddio_ways_max, "min exceeds max");
        assert!(self.ddio_ways_max <= ways, "max exceeds associativity");
        assert!(self.threshold_stable > 0.0, "stability threshold must be positive");
        assert!(self.sleep_interval_ns > 0, "interval must be positive");
    }
}

impl Default for IatConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table_2() {
        let c = IatConfig::paper();
        assert_eq!(c.threshold_stable, 0.03);
        assert_eq!(c.threshold_miss_low_per_s, 1_000_000.0);
        assert_eq!(c.ddio_ways_min, 1);
        assert_eq!(c.ddio_ways_max, 6);
        assert_eq!(c.sleep_interval_ns, 1_000_000_000);
        c.validate(11);
    }

    #[test]
    #[should_panic(expected = "max exceeds associativity")]
    fn validate_catches_oversized_max() {
        IatConfig { ddio_ways_max: 12, ..IatConfig::paper() }.validate(11);
    }
}
