//! A dense set of unordered instance pairs.
//!
//! What the sweep plane asks *between stages* — is this pair protected,
//! condemned, already dropped, scheduled twice — it asks once per
//! scheduled pair per stage. [`PairSet`] answers with a bit test: pair
//! `{lo, hi}` (`lo < hi`) owns bit `hi·(hi−1)/2 + lo` of a triangular
//! bitset — no hash, 2.5 KB at m = 200, 6.3 MB at m = 10 000 — that grows
//! with the largest `hi` seen, so callers need not know m up front.

/// A set of unordered pairs `{a, b}` of instance indices, `a ≠ b`.
/// `(a, b)` and `(b, a)` name the same pair; a self pair `(a, a)` is not a
/// pair and is never a member.
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    /// Bit `hi·(hi−1)/2 + lo` is set iff `{lo, hi}` is a member.
    words: Vec<u64>,
    len: usize,
}

/// The bit `{a, b}` owns, or `None` for a self pair.
fn bit(a: u32, b: u32) -> Option<usize> {
    let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
    (lo != hi).then(|| hi * (hi - 1) / 2 + lo)
}

impl PairSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `{a, b}`; `true` if it was not a member before. A self pair
    /// is ignored (`false`).
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        let Some(bit) = bit(a, b) else {
            return false;
        };
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// True if `{a, b}` is a member.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        bit(a, b).is_some_and(|bit| {
            self.words.get(bit / 64).is_some_and(|word| word & (1u64 << (bit % 64)) != 0)
        })
    }

    /// Number of member pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pair is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The member pairs as `(lo, hi)`, ascending by `hi`, then `lo`. Tests
    /// every pair below the largest row grown — O(capacity), which is fine
    /// for a ledger or a test; nothing between stages iterates a set.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (1u32..)
            .take_while(|&hi| bit(0, hi).is_some_and(|row| row < self.words.len() * 64))
            .flat_map(|hi| (0..hi).map(move |lo| (lo, hi)))
            .filter(|&(lo, hi)| self.contains(lo, hi))
    }
}

impl FromIterator<(u32, u32)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> Self {
        let mut set = Self::new();
        for (a, b) in pairs {
            set.insert(a, b);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_unordered_and_self_pairs_are_never_members() {
        let mut set = PairSet::new();
        assert!(set.insert(3, 1));
        assert!(!set.insert(1, 3), "(1,3) is (3,1)");
        assert!(!set.insert(2, 2));
        assert!(set.contains(1, 3) && set.contains(3, 1));
        assert!(!set.contains(2, 2) && !set.contains(0, 1));
        assert!(!set.contains(9_000, 9_001), "beyond the grown range");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iter_yields_members_in_triangular_order_across_word_boundaries() {
        // Row 12 starts at bit 66: (0,1) sits in word 0, (11,12) in word 1.
        let pairs = [(0, 1), (0, 2), (1, 2), (5, 11), (10, 11), (0, 12), (11, 12), (7, 300)];
        let set: PairSet = pairs.iter().rev().map(|&(a, b)| (b, a)).collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(set.len(), pairs.len());
        assert!(PairSet::new().iter().next().is_none());
    }

    #[test]
    fn footprint_is_one_bit_per_possible_pair() {
        let mut set = PairSet::new();
        set.insert(198, 199);
        assert!(set.words.len() * 8 <= 2_500, "m = 200: {} B", set.words.len() * 8);
    }
}
