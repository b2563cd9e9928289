//! The paper's Table I: six representative large LSTM training
//! benchmarks and their model configurations.

use eta_lstm_core::LossKind;
use eta_memsim::model::LstmShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The application category of a benchmark (Table I "Abbr." column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskCategory {
    /// Question classification (TREC-10).
    QuestionClassification,
    /// Word-level language modeling (PTB).
    LanguageModeling,
    /// Sentiment analysis (IMDB).
    SentimentAnalysis,
    /// Autonomous-driving object tracking (WAYMO).
    AutonomousDriving,
    /// Machine translation (WMT, MLPerf).
    MachineTranslation,
    /// Question answering (bAbI).
    QuestionAnswering,
}

/// The accuracy metric a benchmark reports (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Classification accuracy, higher is better.
    Accuracy,
    /// Perplexity, lower is better.
    Perplexity,
    /// Mean absolute error, lower is better.
    MeanAbsoluteError,
    /// BLEU score, higher is better.
    Bleu,
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Two-letter abbreviation.
    pub abbr: &'static str,
    /// Application category.
    pub category: TaskCategory,
    /// Hidden size.
    pub hidden: usize,
    /// Layer number.
    pub layers: usize,
    /// Layer length (unrolled timesteps).
    pub seq_len: usize,
    /// Where the loss is computed — drives the MS2 β sign.
    pub loss_kind: LossKind,
    /// Reported accuracy metric.
    pub metric: Metric,
}

impl BenchmarkSpec {
    /// The `eta-memsim` shape at the paper's batch size of 128, with the
    /// input width equal to the hidden width (embedding-sized inputs).
    pub fn shape(&self) -> LstmShape {
        self.shape_with_batch(128)
    }

    /// The shape at an arbitrary batch size.
    pub(crate) fn shape_with_batch(&self, batch: usize) -> LstmShape {
        LstmShape::new(self.hidden, self.hidden, self.layers, self.seq_len, batch)
    }
}

/// The six benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// TREC-10 question classification (QC).
    Trec10,
    /// Penn TreeBank language modeling (LM).
    Ptb,
    /// IMDB sentiment analysis (SA).
    Imdb,
    /// WAYMO object tracking (AD).
    Waymo,
    /// WMT German–English translation (MT).
    Wmt,
    /// bAbI question answering (QA).
    Babi,
}

impl Benchmark {
    /// All six in the paper's presentation order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Trec10,
        Benchmark::Ptb,
        Benchmark::Imdb,
        Benchmark::Waymo,
        Benchmark::Wmt,
        Benchmark::Babi,
    ];

    /// The Table I row.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            Benchmark::Trec10 => BenchmarkSpec {
                name: "TREC-10",
                abbr: "QC",
                category: TaskCategory::QuestionClassification,
                hidden: 3072,
                layers: 2,
                seq_len: 18,
                loss_kind: LossKind::SingleLoss,
                metric: Metric::Accuracy,
            },
            Benchmark::Ptb => BenchmarkSpec {
                name: "PTB",
                abbr: "LM",
                category: TaskCategory::LanguageModeling,
                hidden: 1536,
                layers: 4,
                seq_len: 35,
                loss_kind: LossKind::PerTimestamp,
                metric: Metric::Perplexity,
            },
            Benchmark::Imdb => BenchmarkSpec {
                name: "IMDB",
                abbr: "SA",
                category: TaskCategory::SentimentAnalysis,
                hidden: 2048,
                layers: 3,
                seq_len: 100,
                loss_kind: LossKind::SingleLoss,
                metric: Metric::Accuracy,
            },
            Benchmark::Waymo => BenchmarkSpec {
                name: "WAYMO",
                abbr: "AD",
                category: TaskCategory::AutonomousDriving,
                hidden: 1024,
                layers: 3,
                seq_len: 128,
                loss_kind: LossKind::SingleLoss,
                metric: Metric::MeanAbsoluteError,
            },
            Benchmark::Wmt => BenchmarkSpec {
                name: "WMT",
                abbr: "MT",
                category: TaskCategory::MachineTranslation,
                hidden: 1024,
                layers: 4,
                seq_len: 151,
                loss_kind: LossKind::PerTimestamp,
                metric: Metric::Bleu,
            },
            Benchmark::Babi => BenchmarkSpec {
                name: "BABI",
                abbr: "QA",
                category: TaskCategory::QuestionAnswering,
                hidden: 1280,
                layers: 5,
                seq_len: 303,
                loss_kind: LossKind::SingleLoss,
                metric: Metric::Accuracy,
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_match_paper() {
        let qc = Benchmark::Trec10.spec();
        assert_eq!((qc.hidden, qc.layers, qc.seq_len), (3072, 2, 18));
        let lm = Benchmark::Ptb.spec();
        assert_eq!((lm.hidden, lm.layers, lm.seq_len), (1536, 4, 35));
        let sa = Benchmark::Imdb.spec();
        assert_eq!((sa.hidden, sa.layers, sa.seq_len), (2048, 3, 100));
        let ad = Benchmark::Waymo.spec();
        assert_eq!((ad.hidden, ad.layers, ad.seq_len), (1024, 3, 128));
        let mt = Benchmark::Wmt.spec();
        assert_eq!((mt.hidden, mt.layers, mt.seq_len), (1024, 4, 151));
        let qa = Benchmark::Babi.spec();
        assert_eq!((qa.hidden, qa.layers, qa.seq_len), (1280, 5, 303));
    }

    #[test]
    fn loss_structure_matches_fig8() {
        // IMDB is the paper's single-loss example, WMT the
        // per-timestamp example.
        assert_eq!(Benchmark::Imdb.spec().loss_kind, LossKind::SingleLoss);
        assert_eq!(Benchmark::Wmt.spec().loss_kind, LossKind::PerTimestamp);
    }

    #[test]
    fn shapes_use_paper_batch() {
        let s = Benchmark::Ptb.spec().shape();
        assert_eq!(s.batch, 128);
        assert_eq!(s.hidden, 1536);
        let s2 = Benchmark::Ptb.spec().shape_with_batch(8);
        assert_eq!(s2.batch, 8);
    }

    #[test]
    fn all_benchmarks_display_their_names() {
        let names: Vec<String> = Benchmark::ALL.iter().map(|b| b.to_string()).collect();
        assert_eq!(names, ["TREC-10", "PTB", "IMDB", "WAYMO", "WMT", "BABI"]);
    }
}
