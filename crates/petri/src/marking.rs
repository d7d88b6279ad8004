//! Token markings.

use crate::net::PlaceId;

/// A marking: the token count of every place, indexed by [`PlaceId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking(pub(crate) Vec<u32>);

impl Marking {
    /// A marking with the given per-place counts.
    pub fn new(tokens: Vec<u32>) -> Self {
        Self(tokens)
    }

    /// Token count of `place`.
    #[inline]
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.index()]
    }

    /// Set the token count of `place`.
    #[inline]
    pub fn set_tokens(&mut self, place: PlaceId, tokens: u32) {
        self.0[place.index()] = tokens;
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a zero-place marking.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Total tokens across all places.
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| t as u64).sum()
    }

    /// Raw slice view (index = place index).
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Weighted token sum `Σ w_p · m(p)` — evaluates a P-invariant.
    pub fn weighted_sum(&self, weights: &[u64]) -> u64 {
        self.0
            .iter()
            .zip(weights)
            .map(|(&m, &w)| m as u64 * w)
            .sum()
    }
}

/// Dense `u32` IDs for markings, handed out in first-visit order up to a
/// cap: the one marking store behind the reachability graph, the tangible
/// chain and the simulator's marking memo.
///
/// Markings live back to back in one token arena (no allocation per
/// marking); an open-addressing table of IDs finds them by hash.
#[derive(Debug, Clone)]
pub(crate) struct MarkingIndex {
    /// Places per marking.
    width: usize,
    /// Most IDs handed out; [`intern`](Self::intern) refuses new markings
    /// beyond it.
    cap: usize,
    /// Marking `i` is `tokens[i * width..(i + 1) * width]`.
    tokens: Vec<u32>,
    /// Hash of each interned marking.
    hashes: Vec<u64>,
    /// Power-of-two probe table: `id + 1`, or 0 for an empty slot.
    slots: Vec<u32>,
}

/// Outcome of [`MarkingIndex::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interned {
    /// Seen before, under this ID.
    Known(u32),
    /// First visit; this is its new ID.
    New(u32),
    /// First visit, but the index already holds `cap` markings.
    Full,
}

impl MarkingIndex {
    /// An empty index for `width`-place markings holding at most `cap`.
    pub fn new(width: usize, cap: usize) -> Self {
        Self {
            width,
            cap: cap.min(u32::MAX as usize - 1),
            tokens: Vec::new(),
            hashes: Vec::new(),
            slots: vec![0; 16],
        }
    }

    /// Number of interned markings.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The marking with ID `id`.
    #[inline]
    pub fn marking(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.tokens[at..at + self.width]
    }

    /// The ID of `m`, interning it if it is new and the cap allows.
    pub fn intern(&mut self, m: &[u32]) -> Interned {
        debug_assert_eq!(m.len(), self.width);
        let hash = hash_tokens(m);
        let slot = match self.probe(m, hash) {
            Ok(id) => return Interned::Known(id),
            Err(slot) => slot,
        };
        if self.len() >= self.cap {
            return Interned::Full;
        }
        let id = self.len() as u32;
        self.tokens.extend_from_slice(m);
        self.hashes.push(hash);
        self.slots[slot] = id + 1;
        // Keep the load at or below one half, so probe runs stay short.
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        Interned::New(id)
    }

    /// Every interned marking, in ID order.
    pub fn into_markings(self) -> Vec<Marking> {
        if self.width == 0 {
            return vec![Marking::new(Vec::new()); self.len()];
        }
        self.tokens
            .chunks_exact(self.width)
            .map(|m| Marking::new(m.to_vec()))
            .collect()
    }

    /// `Ok(id)` where `m` is stored, else `Err(slot)`: the empty slot
    /// where it would go.
    fn probe(&self, m: &[u32], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.hashes[s as usize - 1] == hash && self.marking(s - 1) == m => {
                    return Ok(s - 1)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let n = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(n, 0);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = hash as usize & (n - 1);
            while self.slots[i] != 0 {
                i = (i + 1) & (n - 1);
            }
            self.slots[i] = id as u32 + 1;
        }
    }
}

/// Multiplicative hash of a token vector, finished with a xor-shift so the
/// low bits that index the probe table depend on every place.
fn hash_tokens(m: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = m.len() as u64;
    for &t in m {
        h = (h.rotate_left(5) ^ t as u64).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

impl std::fmt::Display for Marking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut m = Marking::new(vec![1, 0, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.total_tokens(), 4);
        assert_eq!(m.tokens(PlaceId(2)), 3);
        m.set_tokens(PlaceId(1), 7);
        assert_eq!(m.tokens(PlaceId(1)), 7);
        assert_eq!(m.as_slice(), &[1, 7, 3]);
        assert_eq!(m.to_string(), "[1 7 3]");
    }

    #[test]
    fn marking_index_interns_in_first_visit_order_up_to_cap() {
        // 40 markings force the probe table through two growths.
        let mut index = MarkingIndex::new(2, 40);
        for i in 0..40u32 {
            assert_eq!(index.intern(&[i, i * 7]), Interned::New(i));
        }
        for i in (0..40u32).rev() {
            assert_eq!(index.intern(&[i, i * 7]), Interned::Known(i));
        }
        assert_eq!(index.intern(&[1000, 0]), Interned::Full);
        assert_eq!(
            index.intern(&[3, 21]),
            Interned::Known(3),
            "full, yet found"
        );
        assert_eq!(index.len(), 40);
        assert_eq!(index.marking(3), &[3, 21]);
        let markings = index.into_markings();
        assert_eq!(markings.len(), 40);
        assert_eq!(markings[5], Marking::new(vec![5, 35]));
    }

    #[test]
    fn marking_index_of_a_placeless_net() {
        let mut index = MarkingIndex::new(0, 4);
        assert_eq!(index.intern(&[]), Interned::New(0));
        assert_eq!(index.intern(&[]), Interned::Known(0));
        assert_eq!(index.into_markings(), vec![Marking::new(Vec::new())]);
    }

    #[test]
    fn weighted_sum_evaluates_invariants() {
        let m = Marking::new(vec![2, 1, 0]);
        assert_eq!(m.weighted_sum(&[1, 1, 1]), 3);
        assert_eq!(m.weighted_sum(&[0, 5, 9]), 5);
    }
}
