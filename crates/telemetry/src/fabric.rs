//! Per-run fabric telemetry aggregates.

use maeri_sim::histogram::Histogram;
use maeri_sim::Stats;

use crate::json::JsonValue;

/// Cycle-accounted summary of one traced run through the fabric.
///
/// The simulator that owns the clocked loop computes these from a
/// [`TelemetrySink`](crate::TelemetrySink) plus its own configuration
/// (link bandwidths, switch counts), because only it knows the
/// denominators. Fields are public: this is a data record, not a
/// behaviour.
///
/// Fractions are in `[0, 1]`. `dist_level_utilization[i]` is the
/// occupancy of distribution-tree level `i + 1` (level 1 is just below
/// the root), counting unique injected words against the level's
/// aggregate link bandwidth — a lower bound, since multicast
/// replication by the simple switches is free and not re-counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricTelemetry {
    /// Cycles of the traced iteration.
    pub cycles: u64,
    /// Per-level distribution link occupancy, root-side first.
    pub dist_level_utilization: Vec<f64>,
    /// Fraction of multiplier-cycles doing useful multiplies.
    pub mult_busy_fraction: f64,
    /// Fraction of lane-cycles starved waiting on distribution.
    pub dist_stall_fraction: f64,
    /// Fraction of lane-cycles blocked on collection back-pressure.
    pub collect_stall_fraction: f64,
    /// Adder switches the ART configuration keeps active.
    pub art_active_adders: u64,
    /// Forwarding links the ART configuration activates.
    pub art_forward_links: u64,
    /// Per-wave VN reduction-completion latencies (cycles).
    pub vn_latency: Histogram,
    /// Raw per-kind probe event counts.
    pub events: Stats,
}

impl FabricTelemetry {
    /// Total probe events across all kinds.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.events.iter().map(|(_, v)| v).sum()
    }

    /// A deterministic, diff-friendly text rendering. Floats are fixed
    /// to six decimals so two identical runs produce identical bytes.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycles: {}", self.cycles);
        let _ = writeln!(out, "mult_busy_fraction: {:.6}", self.mult_busy_fraction);
        let _ = writeln!(out, "dist_stall_fraction: {:.6}", self.dist_stall_fraction);
        let _ = writeln!(
            out,
            "collect_stall_fraction: {:.6}",
            self.collect_stall_fraction
        );
        let _ = writeln!(out, "art_active_adders: {}", self.art_active_adders);
        let _ = writeln!(out, "art_forward_links: {}", self.art_forward_links);
        out.push_str("dist_level_utilization:");
        for u in &self.dist_level_utilization {
            let _ = write!(out, " {u:.6}");
        }
        out.push('\n');
        let mut latency = self.vn_latency.clone();
        let _ = writeln!(
            out,
            "vn_latency: n={} p50={} p95={} max={}",
            latency.len(),
            latency.percentile(50.0).unwrap_or(0),
            latency.percentile(95.0).unwrap_or(0),
            latency.max().unwrap_or(0),
        );
        out.push_str("events:");
        for (kind, count) in self.events.iter() {
            let _ = write!(out, " {kind}={count}");
        }
        out.push('\n');
        out
    }

    /// A machine-readable rendering of the same aggregates.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut latency = self.vn_latency.clone();
        let latency_json = JsonValue::object()
            .with("count", JsonValue::UInt(latency.len() as u64))
            .with(
                "p50",
                latency
                    .percentile(50.0)
                    .map_or(JsonValue::Null, JsonValue::UInt),
            )
            .with(
                "p95",
                latency
                    .percentile(95.0)
                    .map_or(JsonValue::Null, JsonValue::UInt),
            )
            .with(
                "max",
                latency.max().map_or(JsonValue::Null, JsonValue::UInt),
            )
            .with(
                "mean",
                latency.mean().map_or(JsonValue::Null, JsonValue::Num),
            );
        let mut events = JsonValue::object();
        for (kind, count) in self.events.iter() {
            events = events.with(kind, JsonValue::UInt(count));
        }
        JsonValue::object()
            .with("cycles", JsonValue::UInt(self.cycles))
            .with(
                "dist_level_utilization",
                JsonValue::Array(
                    self.dist_level_utilization
                        .iter()
                        .map(|&u| JsonValue::Num(u))
                        .collect(),
                ),
            )
            .with(
                "mult_busy_fraction",
                JsonValue::Num(self.mult_busy_fraction),
            )
            .with(
                "dist_stall_fraction",
                JsonValue::Num(self.dist_stall_fraction),
            )
            .with(
                "collect_stall_fraction",
                JsonValue::Num(self.collect_stall_fraction),
            )
            .with("art_active_adders", JsonValue::UInt(self.art_active_adders))
            .with("art_forward_links", JsonValue::UInt(self.art_forward_links))
            .with("vn_latency", latency_json)
            .with("events", events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample() -> FabricTelemetry {
        FabricTelemetry {
            cycles: 143,
            dist_level_utilization: vec![0.5, 0.25],
            mult_busy_fraction: 0.75,
            dist_stall_fraction: 0.01,
            collect_stall_fraction: 0.0,
            art_active_adders: 60,
            art_forward_links: 2,
            vn_latency: [6u64, 6, 7, 9].into_iter().collect(),
            events: [("dist_issue", 143u64), ("vn_reduce_complete", 4)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn canonical_text_is_stable_and_fixed_precision() {
        let t = sample();
        let a = t.canonical_text();
        let b = t.canonical_text();
        assert_eq!(a, b);
        assert!(a.contains("mult_busy_fraction: 0.750000"));
        assert!(a.contains("dist_level_utilization: 0.500000 0.250000"));
        assert!(a.contains("vn_latency: n=4 p50=6 p95=9 max=9"));
        assert!(a.contains("events: dist_issue=143 vn_reduce_complete=4"));
    }

    #[test]
    fn total_events_sums_counters() {
        assert_eq!(sample().total_events(), 147);
    }

    #[test]
    fn json_rendering_validates() {
        let text = sample().to_json().render();
        validate(&text).unwrap();
        assert!(text.contains("\"cycles\":143"));
        assert!(text.contains("\"p95\":9"));
    }

    #[test]
    fn empty_telemetry_renders() {
        let t = FabricTelemetry::default();
        assert!(t
            .canonical_text()
            .contains("vn_latency: n=0 p50=0 p95=0 max=0"));
        let text = t.to_json().render();
        validate(&text).unwrap();
        assert!(text.contains("\"p50\":null"));
    }
}
