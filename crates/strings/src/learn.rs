//! ERM over regular position queries in the two-phase model of \[21\].
//!
//! Phase 1 (before any labelled example): preprocess the background word
//! once per candidate query — `O(|Φ'| · n · |Q|)` total. Phase 2: each
//! labelled example costs `O(|Φ'|)` table lookups, so the per-example
//! cost is independent of `n`. The learner returns the candidate with
//! minimal training error — exact ERM over the finite class.

use crate::query::{PositionQuery, Preprocessed};
use crate::word::Word;

/// A labelled position example.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PosExample {
    /// Position in the background word.
    pub pos: usize,
    /// Boolean label.
    pub label: bool,
}

/// The preprocessed learner state (phase 1 output).
pub struct StringLearner<'q, 'w> {
    word: &'w Word,
    tables: Vec<(&'q PositionQuery, Preprocessed<'q, 'w>)>,
}

/// Result of the ERM phase.
#[derive(Debug)]
pub struct StringLearnResult {
    /// Index of the winning candidate in the class.
    pub best_index: usize,
    /// Its name.
    pub best_name: String,
    /// Its training error.
    pub error: f64,
    /// Table lookups the ERM phase made: one per (candidate, example).
    pub lookups: usize,
}

impl<'q, 'w> StringLearner<'q, 'w> {
    /// Phase 1: preprocess every candidate on the background word.
    pub fn preprocess(word: &'w Word, class: &'q [PositionQuery]) -> Self {
        let tables = class.iter().map(|q| (q, q.preprocess(word))).collect();
        Self { word, tables }
    }

    /// Phase 2: exact ERM over the class; `O(|Φ'| · m)` lookups.
    ///
    /// # Panics
    /// Panics on an out-of-range example position or an empty class.
    pub fn erm(&self, examples: &[PosExample]) -> StringLearnResult {
        assert!(!self.tables.is_empty(), "empty hypothesis class");
        for e in examples {
            assert!(e.pos < self.word.len(), "example position out of range");
        }
        let mut best = (0usize, usize::MAX);
        let mut lookups = 0usize;
        for (idx, (_, pre)) in self.tables.iter().enumerate() {
            let wrong = examples
                .iter()
                .filter(|e| {
                    lookups += 1;
                    pre.classify(e.pos) != e.label
                })
                .count();
            if wrong < best.1 {
                best = (idx, wrong);
            }
        }
        let (best_index, wrong) = best;
        StringLearnResult {
            best_index,
            best_name: self.tables[best_index].0.name.clone(),
            error: if examples.is_empty() {
                0.0
            } else {
                wrong as f64 / examples.len() as f64
            },
            lookups,
        }
    }

    /// Automaton steps phase 1 took, one entry per candidate in class
    /// order (see [`Preprocessed::steps`]).
    pub fn preprocess_steps(&self) -> Vec<usize> {
        self.tables.iter().map(|(_, pre)| pre.steps()).collect()
    }

    /// Classify with the chosen hypothesis (constant time).
    pub fn classify(&self, candidate: usize, pos: usize) -> bool {
        self.tables[candidate].1.classify(pos)
    }
}

#[cfg(test)]
mod tests {
    use crate::query::{before_exists, standard_class};

    use super::*;

    fn label_with(q: &PositionQuery, w: &Word, positions: &[usize]) -> Vec<PosExample> {
        let pre = q.preprocess(w);
        positions
            .iter()
            .map(|&pos| PosExample {
                pos,
                label: pre.classify(pos),
            })
            .collect()
    }

    #[test]
    fn recovers_the_planted_query() {
        let w = Word::random(200, 2, 4);
        let class = standard_class(2);
        let target = before_exists(2, 1);
        // Label *every* position: any zero-error winner then agrees with
        // the target on the whole word (sparser samples may legitimately
        // admit several consistent hypotheses).
        let positions: Vec<usize> = (0..w.len()).collect();
        let examples = label_with(&target, &w, &positions);
        let learner = StringLearner::preprocess(&w, &class);
        let result = learner.erm(&examples);
        assert_eq!(result.error, 0.0);
        let target_pre = target.preprocess(&w);
        for pos in 0..w.len() {
            assert_eq!(
                learner.classify(result.best_index, pos),
                target_pre.classify(pos),
                "at {pos}"
            );
        }
    }

    #[test]
    fn sparse_sample_still_reaches_zero_training_error() {
        let w = Word::random(200, 2, 4);
        let class = standard_class(2);
        let target = before_exists(2, 1);
        let positions: Vec<usize> = (0..40).map(|i| i * 5).collect();
        let examples = label_with(&target, &w, &positions);
        let learner = StringLearner::preprocess(&w, &class);
        let result = learner.erm(&examples);
        assert_eq!(result.error, 0.0);
        assert_eq!(result.lookups, class.len() * examples.len());
        // Consistency holds on the training positions by definition.
        for e in &examples {
            assert_eq!(learner.classify(result.best_index, e.pos), e.label);
        }
    }

    #[test]
    fn agnostic_labels_pick_the_least_wrong() {
        let w = Word::from_ascii("ababab", 2);
        let class = standard_class(2);
        // Label everything positive: no candidate is perfect; ERM still
        // returns the minimiser.
        let examples: Vec<PosExample> = (0..w.len())
            .map(|pos| PosExample { pos, label: true })
            .collect();
        let learner = StringLearner::preprocess(&w, &class);
        let result = learner.erm(&examples);
        // Brute-force the true optimum over the class.
        let best: f64 = class
            .iter()
            .map(|q| {
                let pre = q.preprocess(&w);
                examples
                    .iter()
                    .filter(|e| pre.classify(e.pos) != e.label)
                    .count() as f64
                    / examples.len() as f64
            })
            .fold(f64::INFINITY, f64::min);
        assert!((result.error - best).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_checked() {
        let w = Word::from_ascii("ab", 2);
        let class = standard_class(2);
        let learner = StringLearner::preprocess(&w, &class);
        learner.erm(&[PosExample {
            pos: 7,
            label: true,
        }]);
    }
}
