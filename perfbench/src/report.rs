//! Metric names, the run report, and the host fingerprint.

use std::collections::BTreeMap;

use crate::trace::{self, LayerTotals, Span};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// in an untraced run (see `README.md` for each one's meaning per
/// workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("bins_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("recall_pct", "%"),
    ("precision_pct", "%"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// in a traced run; a layer the workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("elf.load_ms", "ms"),
    ("elf.mapped_frac", "frac"),
    ("core.parse.us_per_bin", "us"),
    ("core.parse.cpu_us_per_bin", "us"),
    ("core.parse.allocs_per_bin", "count"),
    ("disasm.sweep.mb_per_s", "MB/s"),
    ("disasm.sweep.cpu_ms", "ms"),
    ("disasm.sweep.insns", "count"),
    ("disasm.sweep.fast_path_rate", "frac"),
    ("disasm.sweep.decode_errors", "count"),
    ("disasm.sweep.shards", "count"),
    ("core.stages.us_per_bin", "us"),
    ("core.stages.filter_us", "us"),
    ("core.stages.tailcall_us", "us"),
    ("core.stages.bounds_us", "us"),
    ("core.plan.rebuild_us_per_bin", "us"),
    ("core.plan.derive_us_per_config", "us"),
    ("core.plan.allocs_per_bin", "count"),
    ("core.plan.final_candidates", "count"),
    ("batch.hash.gb_per_s", "GB/s"),
    ("batch.cache.hit_rate", "frac"),
    ("batch.cache.encode_us", "us"),
    ("batch.cache.decode_us", "us"),
    ("batch.cache.disk_store_ms", "ms"),
    ("batch.scheduler.parse_ms", "ms"),
    ("batch.scheduler.sweep_ms", "ms"),
    ("batch.scheduler.analyze_ms", "ms"),
    ("batch.scheduler.peak_inflight_mib", "MiB"),
    ("batch.scheduler.worker_busy_frac", "frac"),
    ("pool.helped_frac", "frac"),
    ("client.connect_us", "us"),
    ("client.reply_wait_ms", "ms"),
    ("client.decode_us", "us"),
    ("server.parse_ms_per_miss", "ms"),
    ("server.sweep_ms_per_miss", "ms"),
    ("server.analyze_ms_per_miss", "ms"),
    ("server.analyze_ms_per_req", "ms"),
    ("server.reply_bytes_hits", "count"),
    ("server.singleflight_shared", "count"),
    ("server.busy_total", "count"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.tracing_overhead_frac", "frac"),
    ("bench.span_coverage_frac", "frac"),
];

/// Latency limit a `serve` rate step must meet, ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (each counted once).
    pub attempted: u64,
    /// Operations that failed: an error, a refusal that exhausted its
    /// retries, a timeout or a wrong output.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Records metric `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line to the printed report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// carrying the metrics `wanted` lists (absent ones as 0).
    pub fn print(&self, workload: &str, seed: u64, wanted: &[(&str, &str)]) {
        println!("host {}", host_fingerprint());
        for line in &self.notes {
            println!("{workload}: {line}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload}: fail_frac {fail_frac} ({} failed of {} attempted), seed {seed}",
            self.failed, self.attempted
        );
        let mut json = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            println!("{workload}: metric {name} {value} {unit}");
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Unit of a listed metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Span totals pooled over several batches of spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Totals by span name.
    pub totals: BTreeMap<&'static str, LayerTotals>,
    covered_ns: u64,
    window_ns: u64,
}

impl Layers {
    /// Folds one batch of spans in.
    pub fn add(&mut self, spans: &[Span]) {
        for (name, t) in trace::by_layer(spans) {
            let acc = self.totals.entry(name).or_default();
            acc.count += t.count;
            acc.wall_ns += t.wall_ns;
            acc.self_ns += t.self_ns;
            acc.cpu_ns += t.cpu_ns;
            acc.allocs += t.allocs;
        }
        let (c, w) = trace::coverage_parts(spans);
        self.covered_ns += c;
        self.window_ns += w;
    }

    /// Totals of span `name` (zeros if never recorded).
    pub fn get(&self, name: &str) -> LayerTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Share of the operations' wall time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.window_ns as f64
        }
    }

    /// One report line per layer: calls, self-time share of the
    /// operations' wall time, and per-call wall, CPU and allocations.
    pub fn describe(&self, report: &mut Report) {
        report.note(format!(
            "trace: layer spans cover {:.1}% of the traced operations' wall time",
            100.0 * self.coverage()
        ));
        for (name, t) in &self.totals {
            let per = |v: u64| v as f64 / t.count.max(1) as f64;
            report.note(format!(
                "trace: layer {name:<20} calls {:>8} self {:>6.2}% of wall, {:>10.1} us/call wall, {:>10.1} us/call cpu, {:>8.1} allocs/call",
                t.count,
                100.0 * t.self_ns as f64 / self.window_ns.max(1) as f64,
                per(t.wall_ns) / 1e3,
                per(t.cpu_ns) / 1e3,
                per(t.allocs),
            ));
        }
    }
}

/// CPU model, `nproc`, pool width and the sweep kernel tier: results
/// from different fingerprints are not comparable.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "cpu=\"{cpu}\" nproc={nproc} pool_width={} kernel_tier={:?}",
        funseeker_pool::global().workers(),
        funseeker_disasm::KernelTier::active()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls the `"name"` values of one array out of BENCHMARK.json
    /// without a JSON parser: the file is flat and written by hand.
    fn names_in(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_owned())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layer);
        let workloads = names_in("workloads");
        assert_eq!(workloads, ["corpus", "cli-large", "serve"]);
    }

    #[test]
    fn every_metric_has_a_unit_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(unit_of(name).is_some());
        }
    }
}
