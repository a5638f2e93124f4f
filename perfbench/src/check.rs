//! Output checks: the reference analyses every measured output is
//! compared with, and scoring against the corpus ground truth.

use std::collections::BTreeSet;
use std::ops::AddAssign;

use funseeker::{prepare, Analysis, AnalysisPlan, Config, FunSeeker, FuncSet, Scratch};

/// The four Table II configurations, in order ①–④.
pub fn configs() -> Vec<Config> {
    Config::table2().iter().map(|(_, c)| *c).collect()
}

/// Index of configuration ④ in [`configs`].
pub const C4: usize = 3;

/// Analyzes `bytes` under every configuration twice, by the unfused stage
/// pipeline (`FunSeeker::run_stages_with`) and by the shared plan
/// (`AnalysisPlan::derive`). Returns the stage results when the two agree
/// on every configuration, `None` when the image does not parse or they
/// disagree.
pub fn reference(bytes: &[u8], configs: &[Config]) -> Option<Vec<Analysis>> {
    let prepared = prepare(bytes).ok()?;
    let mut scratch = Scratch::new();
    let mut plan = AnalysisPlan::new();
    plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
    let mut out = Vec::with_capacity(configs.len());
    for cfg in configs {
        let staged = FunSeeker::with_config(*cfg).run_stages_with(
            &prepared.parsed,
            &prepared.index,
            &mut scratch,
        );
        let derived = plan.derive(cfg, &prepared.parsed, &prepared.index, &mut scratch);
        if staged != derived {
            return None;
        }
        out.push(staged);
    }
    Some(out)
}

/// The `funseeker` CLI's default output for one binary: one entry
/// address per line.
pub fn cli_text(functions: &FuncSet) -> String {
    let mut s = String::with_capacity(functions.len() * 10);
    for addr in functions {
        s.push_str(&format!("{addr:#x}\n"));
    }
    s
}

/// True/false positives and false negatives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Found and true.
    pub tp: u64,
    /// Found, not true.
    pub fp: u64,
    /// True, not found.
    pub fn_: u64,
}

impl Score {
    /// Scores one identified set against the truth.
    pub fn of(found: &FuncSet, truth: &BTreeSet<u64>) -> Score {
        let tp = found.iter().filter(|a| truth.contains(a)).count() as u64;
        Score { tp, fp: found.len() as u64 - tp, fn_: truth.len() as u64 - tp }
    }

    /// Recall, percent.
    pub fn recall_pct(&self) -> f64 {
        100.0 * self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }

    /// Precision, percent.
    pub fn precision_pct(&self) -> f64 {
        100.0 * self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }
}

impl AddAssign for Score {
    fn add_assign(&mut self, o: Score) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_corpus::{Dataset, DatasetParams};

    #[test]
    fn scoring_matches_the_table2_harness() {
        let ds = Dataset::generate(&DatasetParams::tiny(), 5);
        let table = funseeker_eval::table2::run(&ds);
        let mut total = [Score::default(); 4];
        for bin in &ds.binaries {
            let truth = bin.truth.eval_entries();
            let per_config = reference(&bin.bytes, &configs()).expect("stages and plan agree");
            for (t, a) in total.iter_mut().zip(&per_config) {
                *t += Score::of(&a.functions, &truth);
            }
        }
        for (mine, theirs) in total.iter().zip(&table.total) {
            assert!((mine.recall_pct() - 100.0 * theirs.recall()).abs() < 1e-9);
            assert!((mine.precision_pct() - 100.0 * theirs.precision()).abs() < 1e-9);
        }
    }

    #[test]
    fn cli_text_is_one_hex_address_per_line() {
        let set = FuncSet::from_sorted(vec![0x2a, 0x1000]);
        assert_eq!(cli_text(&set), "0x2a\n0x1000\n");
    }
}
