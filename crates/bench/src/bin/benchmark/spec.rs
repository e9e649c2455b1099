//! The benchmark's contract as committed in `BENCHMARK.json` — workload
//! names, metric units, directions and regression bounds — plus the
//! statistics every report is built from.

use serde::Deserialize;

/// The committed contract, compiled in so the metric names, units and
/// bounds the program prints can never drift from the file.
const SPEC_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the program reads.
#[derive(Debug, Deserialize)]
pub struct Spec {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: u64,
    /// Workloads, in round-robin order.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the pipeline sees, printed by untraced runs.
    pub end_to_end: Vec<EndToEndSpec>,
    /// Single-layer metrics, printed by traced runs.
    pub per_layer: Vec<LayerSpec>,
}

/// One workload entry.
#[derive(Debug, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as `--workload` takes it.
    pub name: String,
    /// Why the benchmark runs it.
    pub why: String,
}

/// One end-to-end metric.
#[derive(Debug, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric (no bound: layer numbers explain, they do not gate).
#[derive(Debug, Deserialize)]
pub struct LayerSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json` and checks that every
    /// workload and metric name is legal and used once.
    pub fn load() -> Spec {
        let spec: Spec =
            serde_json::from_str(SPEC_JSON).expect("BENCHMARK.json matches the Spec schema");
        let names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "BENCHMARK.json reuses a name");
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            panic!("BENCHMARK.json: illegal name {bad:?}");
        }
        spec
    }

    /// `(name, unit, better)` of every metric a run prints in the given mode.
    pub fn printed(&self, traced: bool) -> Vec<(&str, &str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
                .collect()
        }
    }
}

/// Whether `name` is a legal workload or metric name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads read the same here as in any script checking the results.
/// A single value is all three quartiles; empty input gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`); NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// The smallest worsening of `setup_s` that counts as a regression,
/// whatever its bound: below it, a share of a sub-second setup is page
/// cache and timer noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// How a change's runs compare with its parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten and the medians differ
    /// by more than the parent's own interquartile range.
    Improved,
    /// The change's median is no worse than the parent's by more than
    /// the allowed amount.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// allowed amount.
    Regressed,
    /// The parent's own interquartile range exceeds the allowed amount,
    /// so the runs cannot tell, and not every change run beats every
    /// parent run.
    Unresolved,
}

/// Judges one metric: `parent[i]` and `change[i]` are runs on the same
/// seed. `lower_is_better` gives the direction; `allowed` is how much the
/// median may worsen, in the metric's unit (its bound times the parent's
/// median, or [`SETUP_FLOOR_S`] for `setup_s` if that is larger).
pub fn verdict(lower_is_better: bool, allowed: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (p1, pm, p3) = quartiles(parent);
    let cm = median(change);
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    if p3 - p1 > allowed {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The amount [`verdict`] allows metric `m` to worsen from `parent_median`.
pub fn allowed_worsening(m: &EndToEndSpec, parent_median: f64) -> f64 {
    let share = m.bound * parent_median.abs();
    if m.name == "setup_s" {
        share.max(SETUP_FLOOR_S)
    } else {
        share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0]);
        assert!(close(q1, 1.0) && close(q2, 3.0) && close(q3, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(median(&[]).is_nan());
        assert!(close(spread(&v), 5.5 / 5.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // A 10% bound on a median of 100 allows 10.
        let allowed = 10.0;
        // Throughput 20% lower: regressed.
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(false, allowed, &parent, &slower),
            Verdict::Regressed
        );
        // 2% lower: within the bound.
        let near: Vec<f64> = parent.iter().map(|p| p * 0.98).collect();
        assert_eq!(verdict(false, allowed, &parent, &near), Verdict::Unchanged);
        // 20% higher in every pair: improved.
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(false, allowed, &parent, &faster), Verdict::Improved);
        // The same runs read as a latency (lower is better) flip.
        assert_eq!(verdict(true, allowed, &parent, &faster), Verdict::Regressed);
        assert_eq!(verdict(true, allowed, &parent, &slower), Verdict::Improved);
        // A parent spread wider than the bound cannot resolve a small move.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let moved: Vec<f64> = noisy.iter().map(|p| p * 0.95).collect();
        assert_eq!(verdict(false, allowed, &noisy, &moved), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let far = [500.0; 10];
        assert_eq!(verdict(false, allowed, &noisy, &far), Verdict::Improved);
    }

    #[test]
    fn setup_time_may_worsen_by_its_floor() {
        let setup = EndToEndSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            better: "lower".into(),
            bound: 0.2,
        };
        // 20% of 0.1 s is 20 ms, below the 50 ms floor.
        assert!((allowed_worsening(&setup, 0.1) - SETUP_FLOOR_S).abs() < 1e-12);
        assert!((allowed_worsening(&setup, 1.0) - 0.2).abs() < 1e-12);
        let parent = [0.10, 0.11, 0.09, 0.10, 0.10];
        let change: Vec<f64> = parent.iter().map(|p| p + 0.04).collect();
        let allowed = allowed_worsening(&setup, median(&parent));
        assert_eq!(verdict(true, allowed, &parent, &change), Verdict::Unchanged);
        let sites = EndToEndSpec {
            name: "sites_per_s".into(),
            bound: 0.1,
            better: "higher".into(),
            unit: "1/s".into(),
        };
        assert!((allowed_worsening(&sites, 0.1) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn names_are_validated() {
        for good in [
            "sites_per_s",
            "core.absorb_p99_us",
            "a",
            "9-lives",
            "x.y-z_1",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/no",
            "üm",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn committed_spec_is_well_formed() {
        let spec = Spec::load(); // checks names
        assert!((1..=60).contains(&spec.run_seconds));
        for w in &spec.workloads {
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let units = spec
            .end_to_end
            .iter()
            .map(|m| (m.unit.as_str(), m.better.as_str()))
            .chain(
                spec.per_layer
                    .iter()
                    .map(|m| (m.unit.as_str(), m.better.as_str())),
            );
        for (unit, better) in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(better == "lower" || better == "higher");
        }
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }
}
