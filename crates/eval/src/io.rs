//! Zero-copy I/O path measurement — the `experiments -- io`
//! subcommand.
//!
//! Quantifies the three legs of the zero-copy path introduced with the
//! `FSC3` cache format (DESIGN.md §7):
//!
//! | row | what it measures |
//! |---|---|
//! | `ingest_mmap` | cold ingestion via memory-mapped [`Image`]s: map + content-hash every corpus file (MB/s) |
//! | `ingest_read` | the same files through the buffered `fs::read` fallback (MB/s) |
//! | `decode_v3` | decoding `FSC3` binary cache records back into `Analysis` values (records/s) |
//! | `io_serve_dup` | a duplicate-heavy daemon barrage where every repeat reply is a memcpy of the cached pre-encoded record (req/s) |
//!
//! Every decoded analysis and every daemon reply is checked
//! bit-identical to the direct computation before it counts. Results
//! append to `BENCH_io.json` (same line-oriented trajectory format as
//! `BENCH_sweep.json`); `--check` gates CI on the newest committed
//! `decode_v3` throughput.

use std::sync::Arc;
use std::time::Instant;

use funseeker::{Analysis, Config};
use funseeker_batch::{cache, hash_bytes, mix64, BatchOptions};
use funseeker_elf::Image;
use funseeker_server::{Server, ServerConfig};

use crate::batch::peak_rss_kb;
use crate::trajectory;

/// Trajectory schema tag for `BENCH_io.json`.
pub(crate) const SCHEMA: &str = "funseeker-bench-io-v1";

/// One measured leg of the I/O path.
#[derive(Debug, Clone)]
pub struct IoRow {
    /// Row name (`ingest_mmap`, `ingest_read`, `decode_v3`,
    /// `io_serve_dup`).
    pub label: String,
    /// Best-of-N wall time in milliseconds.
    pub ms: f64,
    /// Sample standard deviation of the wall time over the reps, ms.
    pub sd_ms: f64,
    /// Throughput on the best rep, in `unit`s.
    pub rate: f64,
    /// Unit of `rate` (`MB/s`, `records/s`, `req/s`).
    pub unit: &'static str,
    /// Per-row auxiliary ratio: mmap coverage for `ingest_mmap`
    /// (fraction of files actually mapped), pre-encoded-reply coverage
    /// for `io_serve_dup` (fraction of results served from cached
    /// bytes), 0 elsewhere.
    pub aux: f64,
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct IoReport {
    /// Distinct corpus binaries measured.
    pub binaries: usize,
    /// Total corpus bytes (the ingestion rows' numerator).
    pub total_bytes: u64,
    /// Repetitions per row (the best is reported).
    pub reps: usize,
    /// `VmHWM` of the process at the end, KiB.
    pub peak_rss_kb: u64,
    /// Execution environment of the run.
    pub host: crate::host::Host,
    /// Measured rows.
    pub rows: Vec<IoRow>,
}

/// Runs the measurement. `quick` shrinks the corpus, fleet, and
/// repetition count for CI smoke use.
pub fn run(quick: bool) -> IoReport {
    let (images, _) = crate::batch::corpus(quick);
    // The ingestion and codec rows work on the distinct prefix (the
    // corpus interleaves duplicates; one copy each is the honest
    // denominator for byte throughput).
    let config = Config::c4();
    let expected: Vec<Arc<Analysis>> =
        funseeker_batch::run(&images, std::slice::from_ref(&config), &BatchOptions::default())
            .results
            .into_iter()
            .map(|mut per_config| per_config.remove(0).expect("benchmark corpus parses"))
            .collect();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<(&[u8], &Analysis)> = images
        .iter()
        .zip(&expected)
        .filter(|(img, _)| seen.insert(hash_bytes(img)))
        .map(|(img, a)| (img.as_slice(), a.as_ref()))
        .collect();
    let total_bytes: u64 = distinct.iter().map(|(img, _)| img.len() as u64).sum();
    let reps = if quick { 2 } else { 5 };

    let mut rows: Vec<IoRow> = Vec::new();
    let mut push = |label: &str, samples: &[f64], per_s_of: f64, unit: &'static str, aux: f64| {
        let (best_s, sd_s) = crate::variance::best_and_sd(samples);
        rows.push(IoRow {
            label: label.to_owned(),
            ms: best_s * 1e3,
            sd_ms: sd_s * 1e3,
            rate: per_s_of / best_s,
            unit,
            aux,
        });
    };

    // ---- ingestion: the same corpus written once to disk, then pulled
    // back through both paths. Both run against a warm page cache, so
    // the delta is the copy + allocation, not the disk.
    let dir = std::env::temp_dir().join(format!("funseeker-io-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create io bench dir");
    let paths: Vec<std::path::PathBuf> = distinct
        .iter()
        .enumerate()
        .map(|(i, (img, _))| {
            let path = dir.join(format!("{i:05}.bin"));
            std::fs::write(&path, img).expect("write io bench binary");
            path
        })
        .collect();

    let mut samples = Vec::with_capacity(reps);
    let mut mapped = 0usize;
    for _ in 0..reps {
        mapped = 0;
        let t = Instant::now();
        let mut sum = 0u64;
        for path in &paths {
            let image = Image::load(path).expect("io bench file readable");
            mapped += usize::from(image.is_mapped());
            sum ^= hash_bytes(&image);
        }
        samples.push(t.elapsed().as_secs_f64());
        assert_ne!(sum, 0, "hash mix is never zero over a real corpus");
    }
    let mb = total_bytes as f64 / 1e6;
    push("ingest_mmap", &samples, mb, "MB/s", mapped as f64 / paths.len() as f64);

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut sum = 0u64;
        for path in &paths {
            let bytes = std::fs::read(path).expect("io bench file readable");
            sum ^= hash_bytes(&bytes);
        }
        samples.push(t.elapsed().as_secs_f64());
        assert_ne!(sum, 0, "hash mix is never zero over a real corpus");
    }
    push("ingest_read", &samples, mb, "MB/s", 0.0);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- codec: the analyses through the record format, decode
    // verified bit-identical to the original.
    let fp = cache::config_fingerprint(&config);
    let keyed: Vec<(u64, &[u8], &Analysis)> =
        distinct.iter().map(|&(img, a)| (hash_bytes(img), img, a)).collect();
    let v3: Vec<(u64, Vec<u8>)> = keyed
        .iter()
        .map(|&(h, _, a)| (mix64(h, fp), cache::encode(h, fp, a).expect("corpus analyses encode")))
        .collect();

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for ((key, record), &(_, _, a)) in v3.iter().zip(&keyed) {
            let decoded = cache::decode(*key, record).expect("round trip");
            assert_eq!(&decoded, a, "v3 decode diverged");
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    push("decode_v3", &samples, v3.len() as f64, "records/s", 0.0);

    // ---- serving: duplicate-heavy traffic, where after the first
    // computation every reply body is a memcpy of the cached
    // pre-encoded record.
    let threads = if quick { 8 } else { 64 };
    let per_thread = if quick { 8 } else { 48 };
    let sock = std::env::temp_dir().join(format!("fs-io-bench-{}.sock", std::process::id()));
    let mut server_config = ServerConfig::unix(&sock);
    server_config.max_connections = threads + 8;
    let server = Server::start(server_config).expect("bind io bench socket");
    let addr = server.addr().to_string();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sample = crate::serve::barrage(&addr, &images, &expected, threads, per_thread, None);
        samples.push(sample.elapsed_s);
    }
    let reply_cached = {
        let mut probe = crate::serve::connect_retry(&addr);
        let stats = probe.stats().expect("io bench stats");
        let results = stats.get("results_total").unwrap_or(0);
        let hits = stats.get("reply_bytes_hits").unwrap_or(0);
        if results == 0 {
            0.0
        } else {
            hits as f64 / results as f64
        }
    };
    server.shutdown();
    server.join();
    push("io_serve_dup", &samples, (threads * per_thread) as f64, "req/s", reply_cached);

    IoReport {
        binaries: distinct.len(),
        total_bytes,
        reps,
        peak_rss_kb: peak_rss_kb(),
        host: crate::host::host(),
        rows,
    }
}

impl IoReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "corpus: {} distinct binaries ({:.1} MB), best of {} reps, peak RSS {:.1} MiB\n\n",
            self.binaries,
            self.total_bytes as f64 / 1e6,
            self.reps,
            self.peak_rss_kb as f64 / 1024.0,
        ));
        s.push_str(&format!(
            "{:<14} {:>10} {:>8} {:>12} {:<10} {:>8}\n",
            "row", "ms", "±sd", "rate", "unit", "aux"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<14} {:>10.2} {:>8.2} {:>12.1} {:<10} {:>7.0}%\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.rate,
                r.unit,
                r.aux * 100.0,
            ));
        }
        s
    }

    /// The trajectory entry for this run, as a JSON object literal.
    pub fn json_entry(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "    {{\"label\": {:?}, \"binaries\": {}, \"total_bytes\": {}, \"reps\": {}, \
             \"peak_rss_kb\": {}, {}, \"rows\": [\n",
            label,
            self.binaries,
            self.total_bytes,
            self.reps,
            self.peak_rss_kb,
            self.host.json_fields()
        ));
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"config\": {:?}, \"ms\": {:.3}, \"sd_ms\": {:.3}, \"rate\": {:.1}, \
                 \"unit\": {:?}, \"aux\": {:.4}}}{}\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.rate,
                r.unit,
                r.aux,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("    ]}");
        s
    }

    /// Appends this run as a new entry to an existing `BENCH_io.json`
    /// document (or starts a fresh one).
    pub fn append_to_document(&self, existing: Option<&str>, label: &str) -> String {
        trajectory::append_entry(existing, SCHEMA, self.json_entry(label))
    }
}

/// CI regression gate: the fresh `decode_v3` throughput must reach
/// `min_ratio` of the newest committed entry (noise-widened, and
/// skipped when the committed entry ran on a different core count).
pub fn check_against(committed: &str, fresh: &IoReport, min_ratio: f64) -> Result<String, String> {
    let v3 = fresh
        .rows
        .iter()
        .find(|r| r.label == "decode_v3")
        .ok_or("fresh measurement has no decode_v3 row")?;
    let Some(baseline) = trajectory::last_value(committed, "decode_v3", "rate") else {
        return Err("committed BENCH_io.json has no decode_v3 entry".into());
    };
    let committed_cores = trajectory::last_row_meta(committed, "decode_v3", "cores_used");
    if !fresh.host.comparable_with(committed_cores) {
        return Ok(format!(
            "baseline skipped: committed decode_v3 entry was measured with {} cores, this run \
             uses {} — not comparable",
            committed_cores.unwrap_or(0.0),
            fresh.host.cores_used
        ));
    }
    let rel_committed = trajectory::last_value(committed, "decode_v3", "sd_ms")
        .zip(trajectory::last_value(committed, "decode_v3", "ms"))
        .map_or(0.0, |(sd, ms)| if ms > 0.0 { sd / ms } else { 0.0 });
    let rel_fresh = if v3.ms > 0.0 { v3.sd_ms / v3.ms } else { 0.0 };
    let tol = crate::variance::noise_tolerance(rel_committed, rel_fresh);
    let threshold = min_ratio * (1.0 - tol);
    let ratio = v3.rate / baseline;
    let msg = format!(
        "v3 decode: {:.1} records/s vs committed {:.1} records/s ({:.0}% of baseline, threshold \
         {:.0}% incl. {:.0}% noise tolerance)",
        v3.rate,
        baseline,
        ratio * 100.0,
        threshold * 100.0,
        tol * 100.0,
    );
    if ratio < threshold {
        Err(msg)
    } else {
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> IoReport {
        let row = |label: &str, rate: f64, unit: &'static str| IoRow {
            label: label.into(),
            ms: 50.0,
            sd_ms: 1.0,
            rate,
            unit,
            aux: 0.0,
        };
        IoReport {
            binaries: 100,
            total_bytes: 5_000_000,
            reps: 2,
            peak_rss_kb: 80_000,
            host: crate::host::host(),
            rows: vec![
                row("ingest_mmap", 900.0, "MB/s"),
                row("ingest_read", 600.0, "MB/s"),
                row("decode_v3", 50_000.0, "records/s"),
                row("io_serve_dup", 12_000.0, "req/s"),
            ],
        }
    }

    #[test]
    fn json_round_trip_and_gate() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(doc.contains(SCHEMA));
        assert_eq!(trajectory::last_value(&doc, "decode_v3", "rate"), Some(50_000.0));
        assert_eq!(trajectory::last_value(&doc, "ingest_mmap", "rate"), Some(900.0));
        assert!(check_against(&doc, &r, 0.7).is_ok());
        // A regression below threshold fails the gate.
        let mut slow = fake_report();
        slow.rows[2].rate = 10_000.0;
        assert!(check_against(&doc, &slow, 0.7).is_err());
        // Newest entry is authoritative after an append.
        let mut faster = fake_report();
        faster.rows[2].rate = 60_000.0;
        let doc2 = faster.append_to_document(Some(&doc), "post");
        assert_eq!(trajectory::last_value(&doc2, "decode_v3", "rate"), Some(60_000.0));
    }

    #[test]
    fn quick_measurement_covers_every_row() {
        let report = run(true);
        let get = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label} missing"))
        };
        for label in ["ingest_mmap", "ingest_read", "decode_v3", "io_serve_dup"] {
            assert!(get(label).rate > 0.0, "{label} measured nothing");
        }
        if std::env::var("FUNSEEKER_MMAP").as_deref() != Ok("0") {
            assert!(get("ingest_mmap").aux > 0.99, "regular files must map");
        }
        // The duplicate-heavy barrage must actually exercise the
        // pre-encoded reply path.
        assert!(get("io_serve_dup").aux > 0.5, "reply-bytes coverage too low");
        assert!(!report.render().is_empty());
    }
}
