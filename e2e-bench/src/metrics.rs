//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the benchmark's tests assert the two agree.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sypd", "simyr/day"),
    ("step_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.  A
/// layer that does no work on a workload reports a measured zero (or, for
/// a ratio without a base, 0 — listed under `not_applicable` in the
/// provenance block).
pub const PER_LAYER: &[(&str, &str)] = &[
    // the tail of the untraced run: too unsteady from run to run on a
    // shared 2-core host to gate, so it is reported, not bounded
    ("step_s.tail", "s"),
    ("kernel.adaptation.ns_per_pt", "ns"),
    ("kernel.advection.ns_per_pt", "ns"),
    ("kernel.smoothing.ns_per_pt", "ns"),
    ("kernel.vertical_c.ns_per_pt", "ns"),
    ("kernel.fft_filter.ns_per_pt", "ns"),
    ("kernel.adaptation.bytes_per_pt", "B"),
    ("kernel.advection.bytes_per_pt", "B"),
    ("kernel.smoothing.bytes_per_pt", "B"),
    ("kernel.vertical_c.bytes_per_pt", "B"),
    ("kernel.fft_filter.bytes_per_pt", "B"),
    ("mem.triad_gbs", "GB/s"),
    ("op.A.s_per_step", "s"),
    ("op.C.s_per_step", "s"),
    ("op.F.s_per_step", "s"),
    ("op.L.s_per_step", "s"),
    ("op.S.s_per_step", "s"),
    ("pool.step_speedup", "x"),
    ("exchange.rounds_per_step", "count"),
    ("exchange.msgs_per_step", "count"),
    ("exchange.bytes_per_step", "B"),
    ("exchange.pack_s_per_step", "s"),
    ("exchange.wait_s_per_step", "s"),
    ("exchange.overlap_eff", "ratio"),
    ("ca.group", "count"),
    ("ca.redundant_pts_frac", "ratio"),
    ("collective.calls_per_step", "count"),
    ("collective.bytes_per_step", "B"),
    ("collective.s_per_step", "s"),
    ("transport.wire_bytes_per_step", "B"),
    ("transport.frame_overhead_frac", "ratio"),
    ("step.compute_s", "s"),
    ("step.pack_s", "s"),
    ("step.wire_wait_s", "s"),
    ("step.collective_s", "s"),
    ("step.rank_imbalance", "ratio"),
    ("ckpt.write_s", "s"),
    ("ckpt.bytes", "B"),
    ("ckpt.count", "count"),
    ("resilience.overhead_frac", "ratio"),
    ("setup.model_s", "s"),
    ("setup.init_s", "s"),
    ("setup.connect_s", "s"),
    ("mem.working_set_mb", "MB"),
    ("mem.llc_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("model.step_rel_err", "ratio"),
    ("recon.layer_sum_err", "ratio"),
    ("recon.untracked_frac", "ratio"),
    ("recon.kernel_op_err", "ratio"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Metric values of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name = value`; `name` must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Catalogue names of `set` that were not recorded.
    pub fn missing(&self, set: &[(&str, &str)]) -> Vec<String> {
        set.iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Whether every recorded entry of `set` is finite.
    pub fn all_finite(&self, set: &[(&str, &str)]) -> bool {
        set.iter()
            .all(|(n, _)| self.get(n).is_none_or(f64::is_finite))
    }

    /// The `"metrics"` object: every entry of `set`, in catalogue order.
    pub fn to_json(&self, set: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in set.iter().enumerate() {
            let v = self.get(name).unwrap_or(f64::NAN);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// keeps; non-finite values (never expected) print as `-1`, and the caller
/// marks the run incorrect.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// A JSON array of strings.
pub fn json_list<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s.as_ref())).collect();
    format!("[{}]", quoted.join(", "))
}

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn json_numbers_keep_all_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "-1");
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
        assert_eq!(json_list(&["x", "y"]), "[\"x\", \"y\"]");
    }
}
