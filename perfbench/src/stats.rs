//! Order statistics over samples and the change in the daemon's `stats`
//! counters between two snapshots.

use std::collections::BTreeMap;
use tempo_serve::JsonValue;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, which need not
/// be sorted.  `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.  The
/// epsilon keeps decimal percentiles such as 99.9 from rounding one rank up.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil() as usize
}

/// The highest percentile of 50, 90, 99, 99.9 and 99.99 that has at least
/// ten of `n` samples beyond it (50 when even the median has fewer), so a
/// reported tail always rests on more than a handful of samples.
pub fn supported_tail(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(50.0)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// `exclusive` method), so spreads printed here match the ones an external
/// acceptance check computes.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&s| s <= 0.0) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|s| s.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

/// The numeric content of one `stats` response, flattened to dotted keys:
/// `db.<field>` summed over the shared databases, `admission.<field>`,
/// `counter.<name>`, and `span.<name>.count` / `span.<name>.nanos`.
pub type Counters = BTreeMap<String, i128>;

/// Flattens a `stats` result (see [`Counters`]).
pub fn flatten_stats(stats: &JsonValue) -> Counters {
    let mut out = Counters::new();
    for db in stats
        .get("dbs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        for (key, value) in db
            .get("stats")
            .and_then(JsonValue::as_object)
            .into_iter()
            .flatten()
        {
            *out.entry(format!("db.{key}")).or_insert(0) += value.as_i128().unwrap_or(0);
        }
    }
    let admission = stats.get("admission").and_then(JsonValue::as_object);
    for (key, value) in admission.into_iter().flatten() {
        if let Some(v) = value.as_i128() {
            out.insert(format!("admission.{key}"), v);
        }
    }
    let metrics = stats.get("metrics");
    let counters = metrics
        .and_then(|m| m.get("counters"))
        .and_then(JsonValue::as_object);
    for (name, value) in counters.into_iter().flatten() {
        out.insert(format!("counter.{name}"), value.as_i128().unwrap_or(0));
    }
    let spans = metrics
        .and_then(|m| m.get("spans"))
        .and_then(JsonValue::as_object);
    for (name, span) in spans.into_iter().flatten() {
        let field = |key: &str| span.get(key).and_then(JsonValue::as_i128).unwrap_or(0);
        out.insert(format!("span.{name}.count"), field("count"));
        out.insert(format!("span.{name}.nanos"), field("total_nanos"));
    }
    out
}

/// What changed between two snapshots: `after − before` per key (a key
/// missing from `before` counts from zero).  Gauges such as
/// `admission.workers` come out as zero.
pub fn counters_delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(key, v)| (key.clone(), v - before.get(key).copied().unwrap_or(0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(25), 50.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(400_000), 99.99);

        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 99.9), Some(999.0));
        assert_eq!(percentile(&samples, 100.0), Some(1_000.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert!((geomean(&[4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn stats_changes_from_canned_snapshots() {
        let before = tempo_serve::parse_json(
            r#"{"admission":{"admitted":3,"completed":3,"queue_cap":16,"rejected":0,"workers":2},
                "dbs":[{"config":"icf=2,mcf=64","stats":{"hits":1,"misses":2,"generation_nanos":50}}],
                "metrics":{"counters":{"store.subsumed":10},
                           "spans":{"explore.successor_gen":{"count":4,"max_nanos":9,"total_nanos":40}}},
                "uptime_us":12}"#,
        )
        .unwrap();
        let after = tempo_serve::parse_json(
            r#"{"admission":{"admitted":10,"completed":9,"queue_cap":16,"rejected":1,"workers":2},
                "dbs":[{"config":"icf=2,mcf=64","stats":{"hits":5,"misses":2,"generation_nanos":70}},
                       {"config":"icf=4,mcf=64","stats":{"hits":1,"misses":1,"generation_nanos":5}}],
                "metrics":{"counters":{"store.subsumed":15,"store.evicted":2},
                           "spans":{"explore.successor_gen":{"count":6,"max_nanos":9,"total_nanos":65}}},
                "uptime_us":99}"#,
        )
        .unwrap();
        let delta = counters_delta(&flatten_stats(&before), &flatten_stats(&after));
        let get = |key: &str| delta.get(key).copied();
        assert_eq!(get("admission.admitted"), Some(7));
        assert_eq!(get("admission.completed"), Some(6));
        assert_eq!(get("admission.rejected"), Some(1));
        assert_eq!(get("admission.workers"), Some(0));
        // Databases are summed, including one created after the first snapshot.
        assert_eq!(get("db.hits"), Some(5));
        assert_eq!(get("db.misses"), Some(1));
        assert_eq!(get("db.generation_nanos"), Some(25));
        assert_eq!(get("counter.store.subsumed"), Some(5));
        assert_eq!(get("counter.store.evicted"), Some(2));
        assert_eq!(get("span.explore.successor_gen.count"), Some(2));
        assert_eq!(get("span.explore.successor_gen.nanos"), Some(25));
        assert_eq!(get("uptime_us"), None);
    }
}
