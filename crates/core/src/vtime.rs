//! Vector timestamps for lazy release consistency.
//!
//! TreadMarks divides each processor's execution into *intervals* delimited
//! by synchronization operations and stamps each with a vector timestamp
//! describing the partial order between intervals of different processors
//! (§2 of the paper). `vt[i] = k` means "this point in logical time has seen
//! intervals `1..=k` of processor `i`".

/// Per-processor interval sequence number (interval 0 = "nothing seen").
pub type IntervalId = u32;

/// A vector timestamp over `n` processors.
///
/// ```
/// use ncp2_core::vtime::VectorTime;
/// let mut a = VectorTime::new(3);
/// a.bump(0); // processor 0 closes its first interval
/// let mut b = VectorTime::new(3);
/// assert!(!b.covers_interval(0, 1));
/// b.merge(&a);
/// assert!(b.covers_interval(0, 1));
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct VectorTime(Vec<IntervalId>);

impl Clone for VectorTime {
    fn clone(&self) -> Self {
        // Vector times are cloned onto every synchronization message; the
        // component array is recycled through the thread-local pool.
        let mut v = crate::pool::take_clock();
        v.extend_from_slice(&self.0);
        VectorTime(v)
    }
}

impl Drop for VectorTime {
    fn drop(&mut self) {
        crate::pool::put_clock(std::mem::take(&mut self.0));
    }
}

impl VectorTime {
    /// The zero timestamp for `n` processors.
    pub fn new(n: usize) -> Self {
        let mut v = crate::pool::take_clock();
        v.resize(n, 0);
        VectorTime(v)
    }

    /// Number of processors this timestamp spans.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the timestamp spans zero processors (never in practice).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Latest seen interval of processor `p`.
    pub fn get(&self, p: usize) -> IntervalId {
        self.0[p]
    }

    /// Records that interval `ivl` of processor `p` has been seen. Intervals
    /// are seen in order along any causal chain, so this is a `max`.
    pub fn observe(&mut self, p: usize, ivl: IntervalId) {
        self.0[p] = self.0[p].max(ivl);
    }

    /// Starts processor `p`'s next interval; returns its id.
    pub fn bump(&mut self, p: usize) -> IntervalId {
        self.0[p] += 1;
        self.0[p]
    }

    /// Component-wise maximum with `other` (the acquire-time merge).
    pub fn merge(&mut self, other: &VectorTime) {
        assert_eq!(self.0.len(), other.0.len(), "vector time length mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether this timestamp has seen interval `ivl` of processor `p`.
    pub fn covers_interval(&self, p: usize, ivl: IntervalId) -> bool {
        self.0[p] >= ivl
    }

    /// Whether every component of `other` is covered by `self`
    /// (`other ≤ self` in the interval lattice).
    pub fn covers(&self, other: &VectorTime) -> bool {
        assert_eq!(self.0.len(), other.0.len(), "vector time length mismatch");
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Iterator over `(processor, latest interval)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, IntervalId)> + '_ {
        self.0.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_componentwise_max() {
        let mut a = VectorTime::new(4);
        a.observe(0, 3);
        a.observe(2, 1);
        let mut b = VectorTime::new(4);
        b.observe(1, 2);
        b.observe(2, 5);
        a.merge(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(2), 5);
        assert_eq!(a.get(3), 0);
    }

    #[test]
    fn covers_is_a_partial_order() {
        let mut a = VectorTime::new(2);
        let mut b = VectorTime::new(2);
        a.observe(0, 1);
        b.observe(1, 1);
        // Concurrent: neither covers the other.
        assert!(!a.covers(&b));
        assert!(!b.covers(&a));
        let mut c = a.clone();
        c.merge(&b);
        assert!(c.covers(&a) && c.covers(&b));
        // Reflexive.
        assert!(c.covers(&c));
    }

    #[test]
    fn bump_sequences_intervals() {
        let mut a = VectorTime::new(1);
        assert_eq!(a.bump(0), 1);
        assert_eq!(a.bump(0), 2);
        assert!(a.covers_interval(0, 2));
        assert!(!a.covers_interval(0, 3));
    }

    #[test]
    fn merge_idempotent_and_commutative() {
        let mut a = VectorTime::new(3);
        a.observe(0, 7);
        a.observe(1, 2);
        let mut b = VectorTime::new(3);
        b.observe(1, 4);
        b.observe(2, 9);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(ab, abb);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = VectorTime::new(2);
        let b = VectorTime::new(3);
        a.merge(&b);
    }
}
