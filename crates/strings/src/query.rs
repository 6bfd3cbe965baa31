//! Regular position queries and the \[21\] preprocessing scheme.
//!
//! A *position query* on words over `Σ` is given by a DFA `A` over the
//! marked alphabet `Σ × {0,1}`: position `i` of `w` is selected iff `A`
//! accepts `w` with the mark set exactly at position `i`. By
//! Büchi–Elgot–Trakhtenbrot, these are precisely the MSO-definable unary
//! queries `φ(x)` on strings — the hypothesis class of \[21\].
//!
//! Naively, classifying one position costs a full `O(n)` run. The
//! preprocessing model instead computes, once per word,
//!
//! * `forward[i]` — the state of `A` after reading the unmarked prefix
//!   `w[0..i)`, and
//! * `accept_from[i][q]` — whether reading the unmarked suffix `w[i..)`
//!   from state `q` ends in an accepting state,
//!
//! in `O(n·|Q|)` total; afterwards *every* position classifies in `O(1)`:
//! take the marked transition out of `forward[i]` and look the remainder
//! up in `accept_from[i+1]`. This is the "preprocess once, answer each
//! example in constant time" regime that makes learning sublinear per
//! example (experiment E15 measures exactly this crossover).

use crate::dfa::Dfa;
use crate::word::Word;

/// Encode a `(letter, marked)` pair into the marked alphabet.
#[inline]
pub fn marked_letter(letter: u8, marked: bool) -> u8 {
    letter * 2 + u8::from(marked)
}

/// A unary query given by a DFA over the marked alphabet `Σ × {0,1}`
/// (size `2·σ`, layout per [`marked_letter`]).
#[derive(Clone, Debug)]
pub struct PositionQuery {
    /// Human-readable name (for reports).
    pub name: String,
    automaton: Dfa,
    sigma: u8,
}

impl PositionQuery {
    /// Wrap a marked-alphabet DFA.
    ///
    /// # Panics
    /// Panics unless the automaton's alphabet is exactly `2·sigma`.
    pub fn new(name: impl Into<String>, automaton: Dfa, sigma: u8) -> Self {
        assert_eq!(
            automaton.sigma(),
            2 * sigma as usize,
            "position queries run over the marked alphabet Σ × {{0,1}}"
        );
        Self {
            name: name.into(),
            automaton,
            sigma,
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &Dfa {
        &self.automaton
    }

    /// Alphabet size of the words this query applies to.
    pub fn sigma(&self) -> u8 {
        self.sigma
    }

    /// Naive `O(n)` classification of one position.
    ///
    /// # Panics
    /// Panics if the word's alphabet mismatches or `pos` is out of range.
    pub fn classify_naive(&self, w: &Word, pos: usize) -> bool {
        self.classify_naive_counted(w, pos).0
    }

    /// [`PositionQuery::classify_naive`], with the number of automaton
    /// steps the run took (`n`, one per letter).
    ///
    /// # Panics
    /// Panics if the word's alphabet mismatches or `pos` is out of range.
    pub fn classify_naive_counted(&self, w: &Word, pos: usize) -> (bool, usize) {
        assert_eq!(w.sigma(), self.sigma);
        assert!(pos < w.len());
        let mut state = self.automaton.start();
        let mut steps = 0usize;
        for (i, &l) in w.letters().iter().enumerate() {
            state = self.automaton.step(state, marked_letter(l, i == pos));
            steps += 1;
        }
        (self.automaton.accepts_state(state), steps)
    }

    /// Run the preprocessing phase on a word.
    pub fn preprocess<'q, 'w>(&'q self, w: &'w Word) -> Preprocessed<'q, 'w> {
        assert_eq!(w.sigma(), self.sigma);
        let n = w.len();
        let states = self.automaton.num_states();
        // forward[i]: state after unmarked prefix w[0..i).
        let mut forward = Vec::with_capacity(n + 1);
        let mut s = self.automaton.start();
        let mut steps = 0usize;
        forward.push(s);
        for &l in w.letters() {
            s = self.automaton.step(s, marked_letter(l, false));
            steps += 1;
            forward.push(s);
        }
        // accept_from[i][q]: does the unmarked suffix w[i..) lead q to
        // acceptance? Filled back to front.
        let mut accept_from = vec![vec![false; states]; n + 1];
        for (q, cell) in accept_from[n].iter_mut().enumerate() {
            *cell = self.automaton.accepts_state(q as u32);
        }
        for i in (0..n).rev() {
            let a = marked_letter(w.letter(i), false);
            for q in 0..states {
                let succ = self.automaton.step(q as u32, a);
                steps += 1;
                accept_from[i][q] = accept_from[i + 1][succ as usize];
            }
        }
        Preprocessed {
            query: self,
            word: w,
            forward,
            accept_from,
            steps,
        }
    }
}

/// The preprocessed tables for one `(query, word)` pair; classification is
/// `O(1)` per position.
pub struct Preprocessed<'q, 'w> {
    query: &'q PositionQuery,
    word: &'w Word,
    forward: Vec<u32>,
    accept_from: Vec<Vec<bool>>,
    steps: usize,
}

impl Preprocessed<'_, '_> {
    /// Automaton steps the preprocessing pass took: `n` for the forward
    /// states and `n·|Q|` for the suffix-acceptance table.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Classify a position in constant time.
    ///
    /// # Panics
    /// Panics if `pos` is out of range.
    pub fn classify(&self, pos: usize) -> bool {
        assert!(pos < self.word.len());
        let before = self.forward[pos];
        let after = self
            .query
            .automaton
            .step(before, marked_letter(self.word.letter(pos), true));
        self.accept_from[pos + 1][after as usize]
    }

    /// All selected positions.
    pub fn answer(&self) -> Vec<usize> {
        (0..self.word.len()).filter(|&i| self.classify(i)).collect()
    }
}

// ---------------------------------------------------------------------------
// A standard family of queries used as hypothesis classes and in tests
// ---------------------------------------------------------------------------

/// `φ(x)` = "the letter at x is `letter`".
pub fn letter_is(sigma: u8, letter: u8) -> PositionQuery {
    // Accept iff the marked position carries (letter, 1).
    let s2 = 2 * sigma as usize;
    // States: 0 = not seen mark, 1 = mark seen with target letter,
    // 2 = mark seen with other letter.
    let mut d0: Vec<u32> = vec![0; s2];
    for l in 0..sigma {
        d0[marked_letter(l, true) as usize] = if l == letter { 1 } else { 2 };
    }
    let d1: Vec<u32> = vec![1; s2];
    let d2: Vec<u32> = vec![2; s2];
    PositionQuery::new(
        format!("letter_is({})", (b'a' + letter) as char),
        Dfa::new(vec![d0, d1, d2], vec![false, true, false], 0),
        sigma,
    )
}

/// `φ(x)` = "the next position exists and carries `letter`".
pub fn next_is(sigma: u8, letter: u8) -> PositionQuery {
    let s2 = 2 * sigma as usize;
    // 0 = before mark, 1 = just after mark, 2 = accept-sink, 3 = reject-sink.
    let mut d0: Vec<u32> = vec![0; s2];
    for l in 0..sigma {
        d0[marked_letter(l, true) as usize] = 1;
    }
    let mut d1: Vec<u32> = vec![3; s2];
    for l in 0..sigma {
        d1[marked_letter(l, false) as usize] = if l == letter { 2 } else { 3 };
    }
    let d2: Vec<u32> = vec![2; s2];
    let d3: Vec<u32> = vec![3; s2];
    PositionQuery::new(
        format!("next_is({})", (b'a' + letter) as char),
        Dfa::new(vec![d0, d1, d2, d3], vec![false, false, true, false], 0),
        sigma,
    )
}

/// `φ(x)` = "some `letter` occurs (strictly) before x" — a genuinely
/// non-local MSO/FO query on strings.
pub fn before_exists(sigma: u8, letter: u8) -> PositionQuery {
    let s2 = 2 * sigma as usize;
    // 0 = not seen target & no mark, 1 = seen target & no mark,
    // 2 = marked-after-seen (accept sink), 3 = marked-without (reject sink).
    let mut d0: Vec<u32> = vec![0; s2];
    d0[marked_letter(letter, false) as usize] = 1;
    for l in 0..sigma {
        d0[marked_letter(l, true) as usize] = 3;
    }
    let mut d1: Vec<u32> = vec![1; s2];
    for l in 0..sigma {
        d1[marked_letter(l, true) as usize] = 2;
    }
    let d2: Vec<u32> = vec![2; s2];
    let d3: Vec<u32> = vec![3; s2];
    PositionQuery::new(
        format!("before_exists({})", (b'a' + letter) as char),
        Dfa::new(vec![d0, d1, d2, d3], vec![false, false, true, false], 0),
        sigma,
    )
}

/// `φ(x)` = "the number of `letter`s strictly before x is even" — MSO but
/// **not** FO-definable (modular counting): the class properly extends
/// first-order queries, which is the point of going to MSO on strings.
pub fn even_before(sigma: u8, letter: u8) -> PositionQuery {
    let s2 = 2 * sigma as usize;
    // 0/1 = parity before the mark; 2 = accepted sink; 3 = rejected sink.
    let mut d0: Vec<u32> = vec![0; s2];
    d0[marked_letter(letter, false) as usize] = 1;
    for l in 0..sigma {
        d0[marked_letter(l, true) as usize] = 2;
    }
    let mut d1: Vec<u32> = vec![1; s2];
    d1[marked_letter(letter, false) as usize] = 0;
    for l in 0..sigma {
        d1[marked_letter(l, true) as usize] = 3;
    }
    let d2: Vec<u32> = vec![2; s2];
    let d3: Vec<u32> = vec![3; s2];
    PositionQuery::new(
        format!("even_before({})", (b'a' + letter) as char),
        Dfa::new(vec![d0, d1, d2, d3], vec![false, false, true, false], 0),
        sigma,
    )
}

/// The standard candidate class used by the learner and experiments.
pub fn standard_class(sigma: u8) -> Vec<PositionQuery> {
    let mut out = Vec::new();
    for l in 0..sigma {
        out.push(letter_is(sigma, l));
        out.push(next_is(sigma, l));
        out.push(before_exists(sigma, l));
        out.push(even_before(sigma, l));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letter_is_selects_right_positions() {
        let w = Word::from_ascii("abab", 2);
        let q = letter_is(2, 1);
        let pre = q.preprocess(&w);
        assert_eq!(pre.answer(), vec![1, 3]);
    }

    #[test]
    fn preprocessed_matches_naive_everywhere() {
        let w = Word::random(60, 2, 9);
        for q in standard_class(2) {
            let pre = q.preprocess(&w);
            for i in 0..w.len() {
                assert_eq!(
                    pre.classify(i),
                    q.classify_naive(&w, i),
                    "{} at {i} on {w}",
                    q.name
                );
            }
        }
    }

    #[test]
    fn step_counts_are_linear_in_n() {
        for n in [1usize, 7, 60] {
            let w = Word::random(n, 2, 9);
            for q in standard_class(2) {
                let states = q.automaton().num_states();
                assert_eq!(q.preprocess(&w).steps(), n * (states + 1), "{}", q.name);
                assert_eq!(q.classify_naive_counted(&w, n - 1).1, n, "{}", q.name);
            }
        }
    }

    #[test]
    fn before_exists_semantics() {
        let w = Word::from_ascii("babab", 2);
        let q = before_exists(2, 1); // some 'b' strictly before x
        let pre = q.preprocess(&w);
        assert_eq!(pre.answer(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn even_before_is_modular() {
        let w = Word::from_ascii("bbbb", 2);
        let q = even_before(2, 1);
        let pre = q.preprocess(&w);
        // #b before positions 0,1,2,3 = 0,1,2,3 → even at 0 and 2.
        assert_eq!(pre.answer(), vec![0, 2]);
    }

    #[test]
    fn next_is_semantics() {
        let w = Word::from_ascii("aab", 2);
        let q = next_is(2, 1);
        let pre = q.preprocess(&w);
        assert_eq!(pre.answer(), vec![1]); // position 1 precedes the 'b'
    }
}
