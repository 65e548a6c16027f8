//! The committed-baseline guard shared by the bench binaries
//! (`join_scaling` against `BENCH_join_scaling.json`, `saturation`
//! against `BENCH_saturation.json`).
//!
//! A baseline file holds named sections, each an array of flat objects
//! with an integer key field (`rows`, `clients`) and millisecond
//! fields. `--check <baseline.json>` re-measures, pairs every baseline
//! point with the run's measurement at the same key, and fails if any
//! timing exceeds [`CHECK_FACTOR`]× + [`CHECK_SLACK_MS`] of its
//! baseline — or if no point matched at all, since a guard that
//! compared nothing proves nothing.

/// Maximum allowed slow-down of a timing against the committed baseline
/// before `--check` fails.
pub const CHECK_FACTOR: f64 = 3.0;

/// Additive slack on top of the 3x threshold. Sub-millisecond baseline
/// points (small joins, loopback round trips) sit in the
/// scheduler-noise regime on shared CI runners, where a 3x blow-up
/// means nothing; the slack makes the guard insensitive to that noise
/// while still catching any real regression (a quadratic slip moves
/// these timings by orders of magnitude, far past `3x + 1 ms`).
pub const CHECK_SLACK_MS: f64 = 1.0;

/// The `p`-quantile of `values` (nearest rank, `p` in `0..=1`); `NaN`
/// for no values. `p = 0.5` is the upper median.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[((n as f64 - 1.0) * p).round() as usize],
    }
}

/// Extracts `(<key>, <ms_field>)` pairs from one `"<section>": [ … ]`
/// array of a baseline JSON. Hand-rolled (the workspace is offline —
/// no serde): objects missing either field are skipped.
pub fn pairs(json: &str, section: &str, key: &str, ms_field: &str) -> Vec<(u64, f64)> {
    let Some(start) = json.find(&format!("\"{section}\"")) else { return Vec::new() };
    let rest = &json[start..];
    let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) else { return Vec::new() };
    let field = |obj: &str, name: &str| -> Option<f64> {
        let at = obj.find(&format!("\"{name}\""))?;
        let tail = obj[at..].split_once(':')?.1;
        let num: String = tail
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        num.parse().ok()
    };
    rest[open + 1..close]
        .split('}')
        .filter_map(|obj| Some((field(obj, key)? as u64, field(obj, ms_field)?)))
        .collect()
}

/// Pairs every baseline point of `sections` (`(section, ms_field)`)
/// with `measured(section, key)` and returns how many points matched
/// plus one message per regression.
pub fn compare(
    json: &str,
    key: &str,
    sections: &[(&str, &str)],
    measured: impl Fn(&str, u64) -> Option<f64>,
) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut regressions = Vec::new();
    for &(section, ms_field) in sections {
        for (k, base_ms) in pairs(json, section, key, ms_field) {
            let Some(ms) = measured(section, k) else { continue };
            checked += 1;
            if ms > base_ms * CHECK_FACTOR + CHECK_SLACK_MS {
                regressions.push(format!(
                    "{section} at {key} {k}: {ms:.3} ms vs baseline {base_ms:.3} ms \
                     (> {CHECK_FACTOR}x + {CHECK_SLACK_MS} ms)"
                ));
            }
        }
    }
    (checked, regressions)
}

/// `--check`: [`compare`]s the run against the baseline file at `path`,
/// prints the verdict, and exits with status 1 on any regression or
/// when no baseline point matched the run.
pub fn check(
    path: &str,
    key: &str,
    sections: &[(&str, &str)],
    measured: impl Fn(&str, u64) -> Option<f64>,
) {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let (checked, regressions) = compare(&json, key, sections, measured);
    println!(
        "\nbench guard: {checked} baseline point(s) checked \
         (threshold {CHECK_FACTOR}x + {CHECK_SLACK_MS} ms)"
    );
    if checked == 0 {
        eprintln!("bench guard: no baseline points matched the run");
        std::process::exit(1);
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("REGRESSION: {r}");
        }
        std::process::exit(1);
    }
    println!("bench guard: no regressions");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn reads_both_committed_baselines() {
        let join = committed("BENCH_join_scaling.json");
        let sections = [
            ("measurements", "optimized_ms", 3),
            ("top_k", "optimized_ms", 3),
            ("vec_join", "vectorized_ms", 2),
            ("vec_join_late", "vectorized_ms", 2),
            ("vec_group", "vectorized_ms", 2),
            ("vec_sort", "vectorized_ms", 2),
            ("index_scan", "index_ms", 3),
        ];
        for (section, ms_field, points) in sections {
            assert_eq!(pairs(&join, section, "rows", ms_field).len(), points, "{section}");
        }
        assert_eq!(pairs(&join, "measurements", "rows", "optimized_ms")[0], (50, 0.0426));
        let saturation = committed("BENCH_saturation.json");
        for section in ["read_heavy", "write_heavy"] {
            let keys: Vec<u64> =
                pairs(&saturation, section, "clients", "p50_ms").iter().map(|p| p.0).collect();
            assert_eq!(keys, [1, 8, 64], "{section}");
        }
        assert!(pairs(&saturation, "missing", "clients", "p50_ms").is_empty());
    }

    #[test]
    fn compare_applies_the_threshold_and_counts_matches() {
        let json = committed("BENCH_saturation.json");
        let sections = [("read_heavy", "p50_ms"), ("write_heavy", "p50_ms")];
        let base = |section: &str, k: u64| {
            pairs(&json, section, "clients", "p50_ms").into_iter().find(|p| p.0 == k).map(|p| p.1)
        };
        // The baseline against itself: every point matches, none regresses.
        assert_eq!(compare(&json, "clients", &sections, base), (6, Vec::new()));
        // Just inside and just past 3x + 1 ms at one client.
        let at = |factor: f64| {
            move |section: &str, k: u64| {
                (k == 1).then(|| base(section, k).unwrap() * factor + CHECK_SLACK_MS)
            }
        };
        assert_eq!(compare(&json, "clients", &sections, at(2.99)), (2, Vec::new()));
        let (checked, regressions) = compare(&json, "clients", &sections, at(3.01));
        assert_eq!((checked, regressions.len()), (2, 2), "{regressions:?}");
        // No matching key: nothing checked, which `check` treats as failure.
        assert_eq!(compare(&json, "clients", &sections, |_, _| None), (0, Vec::new()));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.95), 5.0);
    }
}
