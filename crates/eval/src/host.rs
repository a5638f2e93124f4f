//! Host metadata stamped onto every bench-trajectory entry.
//!
//! Trajectory files accumulate entries measured on whatever machine ran
//! the bench — a laptop, a 1-core CI container, a 32-core build box.
//! Throughput comparisons across different core counts are meaningless
//! (a "regression" that is really a narrower host would mask real ones
//! and fail good runs), so each new entry records how wide the pool was
//! and what the host offered, and every `--check` gate first compares
//! the committed entry's `cores_used` against the fresh run's before
//! comparing numbers. Entries predating this metadata carry none and
//! are treated as comparable, preserving gate continuity.

use funseeker_disasm::KernelTier;

/// The execution environment of one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Worker-pool width the run used (after `FUNSEEKER_CORES` /
    /// `--cores` plumbing).
    pub cores_used: usize,
    /// `available_parallelism()` on the host.
    pub available_parallelism: usize,
    /// The build's kernel tier name (`sse2` on x86-64, `scalar`
    /// elsewhere). Older entries may record `avx2` or `swar`.
    pub tier: String,
}

/// Snapshot of the current process's execution environment.
pub fn host() -> Host {
    Host {
        cores_used: funseeker_pool::global().workers(),
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        tier: format!("{:?}", KernelTier::active()).to_ascii_lowercase(),
    }
}

impl Host {
    /// The metadata as JSON object fields (no braces, no trailing
    /// comma), for splicing into an entry header line.
    pub fn json_fields(&self) -> String {
        format!(
            "\"cores_used\": {}, \"avail_par\": {}, \"tier\": {:?}",
            self.cores_used, self.available_parallelism, self.tier
        )
    }

    /// Whether a committed entry's recorded width (from
    /// [`crate::trajectory::last_row_meta`]) is comparable with this
    /// run. `None` — an entry written before host metadata existed — is
    /// treated as comparable.
    pub fn comparable_with(&self, committed_cores: Option<f64>) -> bool {
        committed_cores.is_none_or(|c| c == self.cores_used as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sane_and_renders() {
        let h = host();
        assert!(h.cores_used >= 1);
        assert!(h.available_parallelism >= 1);
        let want = if cfg!(target_arch = "x86_64") { "sse2" } else { "scalar" };
        assert_eq!(h.tier, want);
        let fields = h.json_fields();
        assert!(fields.contains("\"cores_used\": "), "{fields}");
        assert!(fields.contains("\"tier\": \""), "{fields}");
    }

    #[test]
    fn comparability_rules() {
        let h = Host { cores_used: 2, available_parallelism: 8, tier: "sse2".into() };
        assert!(h.comparable_with(None), "pre-metadata entries stay comparable");
        assert!(h.comparable_with(Some(2.0)));
        assert!(!h.comparable_with(Some(1.0)), "different width is not comparable");
    }
}
