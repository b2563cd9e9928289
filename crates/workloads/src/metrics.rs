//! Evaluation metrics for the Table II accuracy comparison:
//! classification accuracy, perplexity, mean absolute error, and BLEU.

use eta_tensor::Matrix;
#[allow(
    clippy::disallowed_types,
    reason = "n-gram counts are summed as integers, so iteration order cannot move BLEU"
)]
use std::collections::HashMap;

/// Perplexity from a mean cross-entropy (natural-log) loss:
/// `PPL = e^loss`. Lower is better.
pub fn perplexity(mean_nll: f64) -> f64 {
    mean_nll.exp()
}

/// Mean absolute error between predictions and targets.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mae(pred: &Matrix, target: &Matrix) -> f64 {
    assert_eq!(pred.rows(), target.rows(), "MAE shape mismatch");
    assert_eq!(pred.cols(), target.cols(), "MAE shape mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.as_slice()
        .iter()
        .zip(target.as_slice().iter())
        .map(|(&p, &t)| (p - t).abs() as f64)
        .sum::<f64>()
        / pred.len() as f64
}

/// Corpus BLEU with uniform 1..=`max_n`-gram weights and the standard
/// brevity penalty, with +1 smoothing on higher-order precisions
/// (Lin–Och smoothing) so short corpora don't zero out.
///
/// `candidates[i]` is scored against `references[i]`. Returns a score
/// in `[0, 1]` (multiply by 100 for the conventional scale).
///
/// # Panics
///
/// Panics if the corpus sizes differ or `max_n == 0`.
pub fn bleu(candidates: &[Vec<u32>], references: &[Vec<u32>], max_n: usize) -> f64 {
    assert_eq!(
        candidates.len(),
        references.len(),
        "candidate/reference count mismatch"
    );
    assert!(max_n > 0, "BLEU needs at least unigrams");
    if candidates.is_empty() {
        return 0.0;
    }

    let mut log_precision_sum = 0.0f64;
    for n in 1..=max_n {
        let mut matched = 0u64;
        let mut total = 0u64;
        for (cand, reference) in candidates.iter().zip(references.iter()) {
            let cand_grams = ngram_counts(cand, n);
            let ref_grams = ngram_counts(reference, n);
            for (gram, &count) in &cand_grams {
                let clip = ref_grams.get(gram).copied().unwrap_or(0);
                matched += count.min(clip);
            }
            total += cand.len().saturating_sub(n - 1) as u64;
        }
        // Smoothing: orders above 1 get +1/+1 so a missing 4-gram match
        // doesn't zero the geometric mean.
        let (num, den) = if n == 1 {
            (matched as f64, total.max(1) as f64)
        } else {
            (matched as f64 + 1.0, total as f64 + 1.0)
        };
        if num == 0.0 {
            return 0.0;
        }
        log_precision_sum += (num / den).ln();
    }
    let geo_mean = (log_precision_sum / max_n as f64).exp();

    let cand_len: usize = candidates.iter().map(Vec::len).sum();
    let ref_len: usize = references.iter().map(Vec::len).sum();
    let bp = if cand_len >= ref_len || cand_len == 0 {
        1.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    bp * geo_mean
}

#[allow(
    clippy::disallowed_types,
    reason = "n-gram counts are summed as integers, so iteration order cannot move BLEU"
)]
fn ngram_counts(seq: &[u32], n: usize) -> HashMap<&[u32], u64> {
    let mut counts = HashMap::new();
    if seq.len() >= n {
        for window in seq.windows(n) {
            *counts.entry(window).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perplexity_of_uniform_distribution() {
        // NLL of a uniform 10-way guess is ln(10) → PPL 10.
        assert!((perplexity(10.0f64.ln()) - 10.0).abs() < 1e-9);
        assert_eq!(perplexity(0.0), 1.0);
    }

    #[test]
    fn mae_basics() {
        let p = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let t = Matrix::from_vec(1, 3, vec![1.5, 2.0, 1.0]).unwrap();
        assert!((mae(&p, &t) - (0.5 + 0.0 + 2.0) / 3.0).abs() < 1e-9);
        assert_eq!(mae(&p, &p), 0.0);
    }

    #[test]
    fn bleu_perfect_match_scores_one() {
        let c = vec![vec![1u32, 2, 3, 4, 5, 6]];
        assert!((bleu(&c, &c, 4) - 1.0).abs() < 0.08, "{}", bleu(&c, &c, 4));
    }

    #[test]
    fn bleu_disjoint_scores_zero() {
        let c = vec![vec![1u32, 2, 3, 4]];
        let r = vec![vec![5u32, 6, 7, 8]];
        assert!(bleu(&c, &r, 4) < 0.2);
    }

    #[test]
    fn bleu_partial_overlap_is_intermediate() {
        let c = vec![vec![1u32, 2, 3, 9, 9, 9]];
        let r = vec![vec![1u32, 2, 3, 4, 5, 6]];
        let score = bleu(&c, &r, 4);
        let perfect = bleu(&r, &r, 4);
        assert!(score > 0.0 && score < perfect);
    }

    #[test]
    fn bleu_brevity_penalty_punishes_short_candidates() {
        let r = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let short = vec![vec![1u32, 2, 3]];
        let full = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        assert!(bleu(&short, &r, 2) < bleu(&full, &r, 2));
    }

    #[test]
    fn bleu_empty_corpus_is_zero() {
        assert_eq!(bleu(&[], &[], 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn bleu_rejects_mismatched_corpora() {
        let _ = bleu(&[vec![1]], &[], 4);
    }
}
