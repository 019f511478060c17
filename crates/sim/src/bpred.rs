//! Branch-predictor models with real state.

use crate::config::BranchPredictor;

/// Outcome of consulting the predictor for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether the predictor believed the branch would be taken.
    pub taken: bool,
    /// Whether the target was also predicted (BTB hit) — without it a
    /// correctly-predicted taken branch still pays a 1-cycle redirect.
    pub target_known: bool,
}

/// Stateful branch predictor, instantiated from a
/// [`BranchPredictor`] configuration.
///
/// # Example
///
/// ```
/// use cfu_sim::{BranchPredictor, PredictorState};
/// let mut p = PredictorState::new(BranchPredictor::Dynamic { entries: 16 });
/// // Train a loop-back branch: after two taken outcomes it predicts taken.
/// let pred = p.predict(0x100, -4);
/// p.update(0x100, pred, true);
/// let pred = p.predict(0x100, -4);
/// p.update(0x100, pred, true);
/// assert!(p.predict(0x100, -4).taken);
/// ```
#[derive(Debug, Clone)]
pub struct PredictorState {
    kind: BranchPredictor,
    /// 2-bit saturating counters (0..=3), indexed by PC.
    counters: Vec<u8>,
    /// Valid bits for the BTB (DynamicTarget only).
    btb_valid: Vec<bool>,
    hits: u64,
    misses: u64,
    /// Entries trained since the last [`take_touched`](Self::take_touched),
    /// folded: entry `i` sets bit `i % 64`.
    touched: u64,
}

impl PredictorState {
    /// Creates predictor state for `kind`. Table sizes are rounded up to
    /// the next power of two (minimum 1): the PC index masks
    /// with `len - 1`, so any other size would alias PCs to wrong slots —
    /// and `entries: 0` would index out of bounds. `CpuConfig::validate`
    /// rejects such configurations up front; this guard keeps directly
    /// constructed predictor state safe too.
    pub fn new(kind: BranchPredictor) -> Self {
        let entries = match kind {
            BranchPredictor::Dynamic { entries } | BranchPredictor::DynamicTarget { entries } => {
                entries.max(1).next_power_of_two() as usize
            }
            _ => 0,
        };
        PredictorState {
            kind,
            counters: vec![1; entries], // weakly not-taken
            btb_valid: vec![false; entries],
            hits: 0,
            misses: 0,
            touched: 0,
        }
    }

    /// The configuration this state was built from.
    pub fn kind(&self) -> BranchPredictor {
        self.kind
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicts the branch at `pc` with signed `offset`.
    #[inline]
    pub fn predict(&self, pc: u32, offset: i32) -> Prediction {
        match self.kind {
            BranchPredictor::None => Prediction { taken: false, target_known: false },
            BranchPredictor::Static => {
                // Backward taken, forward not taken; target computed in
                // decode, so a taken hit still redirects early (treat as
                // known).
                Prediction { taken: offset < 0, target_known: true }
            }
            BranchPredictor::Dynamic { .. } => {
                let taken = self.counters[self.index(pc)] >= 2;
                Prediction { taken, target_known: true }
            }
            BranchPredictor::DynamicTarget { .. } => {
                let i = self.index(pc);
                Prediction { taken: self.counters[i] >= 2, target_known: self.btb_valid[i] }
            }
        }
    }

    /// Records the actual outcome, trains the tables, and returns whether
    /// `prediction` — the value [`predict`](Self::predict) returned for
    /// this branch *before* its outcome was known — was correct.
    ///
    /// Taking the real prediction (instead of recomputing one here from a
    /// synthesized offset) matters for [`BranchPredictor::Static`]: BTFN
    /// predicts from the branch *direction*, and an offset derived from
    /// the outcome would make the recomputed prediction agree with the
    /// outcome by construction — Static would never mispredict.
    #[inline]
    pub fn update(&mut self, pc: u32, prediction: Prediction, taken: bool) -> bool {
        match self.kind {
            BranchPredictor::None | BranchPredictor::Static => {}
            BranchPredictor::Dynamic { .. } | BranchPredictor::DynamicTarget { .. } => {
                let i = self.index(pc);
                let c = &mut self.counters[i];
                // Saturating 2-bit counter, written branch-free: the
                // outcome bit `taken` is data-dependent and would cost a
                // host mispredict per branch on the replay hot path.
                *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
                self.btb_valid[i] |= taken;
                self.touched |= 1 << (i & 63);
            }
        }
        let correct = prediction.taken == taken;
        self.hits += u64::from(correct);
        self.misses += u64::from(!correct);
        correct
    }

    /// Predicts and then trains one branch, returning `(mispredicted,
    /// redirect)`: `redirect` marks a correctly predicted taken branch
    /// whose target was not known, which still pays a one-cycle bubble.
    /// The TLM's branch charge and the trace-replay branch pass share
    /// it.
    #[inline]
    pub(crate) fn resolve(&mut self, pc: u32, offset: i32, taken: bool) -> (bool, bool) {
        let prediction = self.predict(pc, offset);
        let correct = self.update(pc, prediction, taken);
        (!correct, correct & taken & !prediction.target_known)
    }

    /// Resolves `k` taken outcomes of the branch at `pc` exactly as `k`
    /// [`resolve`](Self::resolve) calls would, returning the summed
    /// `(mispredicts, redirects)`. A taken outcome drives the entry
    /// towards a fixed point (counter 3, target known) that it reaches
    /// within three updates; from there every outcome predicts alike and
    /// leaves the entry as it is, so the rest are counted at once.
    pub(crate) fn resolve_taken(&mut self, pc: u32, offset: i32, k: u64) -> (u64, u64) {
        let (mut mispredicts, mut redirects) = (0, 0);
        let mut left = k;
        while left > 0 && !self.taken_fixed_point(pc) {
            let (mispredicted, redirect) = self.resolve(pc, offset, true);
            mispredicts += u64::from(mispredicted);
            redirects += u64::from(redirect);
            left -= 1;
        }
        if left > 0 {
            let prediction = self.predict(pc, offset);
            let correct = u64::from(prediction.taken);
            self.hits += left * correct;
            self.misses += left * (1 - correct);
            mispredicts += left * (1 - correct);
            redirects += left * correct * u64::from(!prediction.target_known);
            if !self.counters.is_empty() {
                self.touched |= 1 << (self.index(pc) & 63);
            }
        }
        (mispredicts, redirects)
    }

    /// Whether a taken outcome at `pc` would leave the predictor's state
    /// as it is: always for the stateless predictors, and for the
    /// dynamic ones once the entry saturates with its target known.
    fn taken_fixed_point(&self, pc: u32) -> bool {
        self.counters.is_empty() || {
            let i = self.index(pc);
            self.counters[i] == 3 && self.btb_valid[i]
        }
    }

    /// (correct, incorrect) prediction counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The folded mask of entries trained since the previous call (entry
    /// `i` sets bit `i % 64`), clearing it. Only the dynamic predictors
    /// have entries; their predictions read nothing else.
    pub(crate) fn take_touched(&mut self) -> u64 {
        std::mem::take(&mut self.touched)
    }

    /// The entries a folded mask covers.
    fn masked(&self, mask: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.counters.len()).filter(move |i| mask >> (i & 63) & 1 == 1)
    }

    /// Appends the state of every entry `mask` covers to `out`, one word
    /// each.
    pub(crate) fn save_entries(&self, mask: u64, out: &mut Vec<u64>) {
        out.extend(self.masked(mask).map(|i| self.entry(i)));
    }

    /// Whether the entries `mask` covers are in the state
    /// [`save_entries`](Self::save_entries) wrote as `saved`.
    pub(crate) fn entries_match(&self, mask: u64, saved: &[u64]) -> bool {
        self.masked(mask).zip(saved).all(|(i, &word)| self.entry(i) == word)
    }

    /// The words of the entries `mask` covers, out of words
    /// [`save_entries`](Self::save_entries) wrote under `saved_mask`, a
    /// superset of `mask`.
    pub(crate) fn select_entries(&self, saved_mask: u64, saved: &[u64], mask: u64) -> Vec<u64> {
        self.masked(saved_mask)
            .zip(saved)
            .filter(|&(i, _)| mask >> (i & 63) & 1 == 1)
            .map(|(_, &word)| word)
            .collect()
    }

    /// Puts the entries `mask` covers into the state
    /// [`save_entries`](Self::save_entries) wrote as `saved`.
    pub(crate) fn restore_entries(&mut self, mask: u64, saved: &[u64]) {
        let entries: Vec<usize> = self.masked(mask).collect();
        for (i, &word) in entries.into_iter().zip(saved) {
            self.counters[i] = word as u8;
            self.btb_valid[i] = word >> 8 == 1;
        }
    }

    fn entry(&self, i: usize) -> u64 {
        u64::from(self.counters[i]) | u64::from(self.btb_valid[i]) << 8
    }

    /// Adds skipped prediction counts (a fast-forward).
    pub(crate) fn add_stats(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Predict-then-update with the real offset, the way every call site
    /// drives the predictor.
    fn observe(p: &mut PredictorState, pc: u32, offset: i32, taken: bool) -> bool {
        let prediction = p.predict(pc, offset);
        p.update(pc, prediction, taken)
    }

    #[test]
    fn none_never_predicts_taken() {
        let p = PredictorState::new(BranchPredictor::None);
        assert!(!p.predict(0, -4).taken);
        assert!(!p.predict(0, 4).taken);
    }

    #[test]
    fn static_is_btfn() {
        let p = PredictorState::new(BranchPredictor::Static);
        assert!(p.predict(0, -4).taken);
        assert!(!p.predict(0, 8).taken);
    }

    #[test]
    fn static_mispredicts_against_its_heuristic() {
        // BTFN must be *wrong* on forward-taken and backward-not-taken
        // branches — the regression the synthesized-offset update hid.
        let mut p = PredictorState::new(BranchPredictor::Static);
        assert!(!observe(&mut p, 0x100, 8, true), "forward taken must mispredict");
        assert!(!observe(&mut p, 0x100, -8, false), "backward not-taken must mispredict");
        assert!(observe(&mut p, 0x100, -8, true), "backward taken is correct");
        assert!(observe(&mut p, 0x100, 8, false), "forward not-taken is correct");
        assert_eq!(p.stats(), (2, 2));
    }

    #[test]
    fn dynamic_learns_bias() {
        let mut p = PredictorState::new(BranchPredictor::Dynamic { entries: 16 });
        assert!(!p.predict(0x40, -4).taken); // starts weakly not-taken
        observe(&mut p, 0x40, -4, true);
        observe(&mut p, 0x40, -4, true);
        assert!(p.predict(0x40, -4).taken);
        observe(&mut p, 0x40, -4, false);
        observe(&mut p, 0x40, -4, false);
        observe(&mut p, 0x40, -4, false);
        assert!(!p.predict(0x40, -4).taken);
    }

    #[test]
    fn dynamic_target_learns_targets() {
        let mut p = PredictorState::new(BranchPredictor::DynamicTarget { entries: 16 });
        assert!(!p.predict(0x80, -4).target_known);
        observe(&mut p, 0x80, -4, true);
        assert!(p.predict(0x80, -4).target_known);
    }

    #[test]
    fn aliasing_uses_modulo_indexing() {
        let mut p = PredictorState::new(BranchPredictor::Dynamic { entries: 4 });
        // pc 0x0 and pc 0x10 alias in a 4-entry table (index = pc>>2 & 3).
        observe(&mut p, 0x0, -4, true);
        observe(&mut p, 0x0, -4, true);
        assert!(p.predict(0x10, -4).taken);
    }

    #[test]
    fn table_sizes_round_up_to_powers_of_two() {
        // entries: 0 must not index out of bounds; a non-power-of-two
        // must not alias PCs that a proper table would keep apart.
        for kind in
            [BranchPredictor::Dynamic { entries: 0 }, BranchPredictor::DynamicTarget { entries: 0 }]
        {
            let mut p = PredictorState::new(kind);
            observe(&mut p, 0x0, -4, true);
            observe(&mut p, 0x0, -4, true);
            assert!(p.predict(0x0, -4).taken, "one-entry table still trains");
        }
        // 100 rounds to 128: pc 0x0 (index 0) and pc 0x190 (index 100)
        // stay distinct, which a 100-entry modulo table would conflate.
        let mut p = PredictorState::new(BranchPredictor::Dynamic { entries: 100 });
        observe(&mut p, 0x0, -4, true);
        observe(&mut p, 0x0, -4, true);
        assert!(p.predict(0x0, -4).taken);
        assert!(!p.predict(0x190, -4).taken, "0x190 must not alias 0x0 in a 128-entry table");
    }

    #[test]
    fn accuracy_on_loop_pattern() {
        // A 100-iteration loop: dynamic predictor should be right ~99%.
        let mut p = PredictorState::new(BranchPredictor::Dynamic { entries: 64 });
        for _ in 0..3 {
            for i in 0..100 {
                observe(&mut p, 0x200, -4, i != 99);
            }
        }
        let (hits, misses) = p.stats();
        assert!(hits > 290, "hits={hits} misses={misses}");
    }

    /// A predictor of one of the four kinds in a random state: every
    /// entry's counter and target bit drawn at random, the touched mask
    /// cleared. 4-entry tables make the generated sites alias.
    fn random_state(kind: usize, entries: u32, seed: u64) -> PredictorState {
        let entries = [1, 4, 16][entries as usize % 3];
        let kind = [
            BranchPredictor::None,
            BranchPredictor::Static,
            BranchPredictor::Dynamic { entries },
            BranchPredictor::DynamicTarget { entries },
        ][kind];
        let mut p = PredictorState::new(kind);
        for (i, (c, valid)) in p.counters.iter_mut().zip(&mut p.btb_valid).enumerate() {
            let bits = seed >> (3 * (i % 21));
            *c = (bits & 3) as u8;
            *valid = bits & 4 != 0;
        }
        p
    }

    /// Everything a later branch or a span checkpoint can observe.
    fn state(p: &mut PredictorState) -> (Vec<u8>, Vec<bool>, (u64, u64), u64) {
        (p.counters.clone(), p.btb_valid.clone(), p.stats(), p.take_touched())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn taken_run_equals_per_branch_resolve(
            (kind, entries, seed) in (0usize..4, 0u32..3, any::<u64>()),
            runs in vec((0u32..8, any::<bool>(), 0u64..=300, any::<bool>()), 1..6),
        ) {
            let mut closed = random_state(kind, entries, seed);
            let mut stepped = closed.clone();
            for (site, backward, k, then_not_taken) in runs {
                let (pc, offset) = (site * 4, if backward { -4 } else { 4 });
                let got = closed.resolve_taken(pc, offset, k);
                let mut want = (0, 0);
                for _ in 0..k {
                    let (mispredicted, redirect) = stepped.resolve(pc, offset, true);
                    want.0 += u64::from(mispredicted);
                    want.1 += u64::from(redirect);
                }
                prop_assert_eq!(got, want, "site {} k {} {:?}", site, k, closed.kind());
                prop_assert_eq!(state(&mut closed), state(&mut stepped), "site {} k {}", site, k);
                // A not-taken outcome moves the entry off its fixed point.
                if then_not_taken {
                    prop_assert_eq!(closed.resolve(pc, offset, false), stepped.resolve(pc, offset, false));
                }
            }
        }
    }
}
