//! The predicate → subscription association table.

use crate::PredicateId;

/// Lists at least this long move to the geometric-growth spill tier.
const LARGE_THRESHOLD: usize = 64;

/// One dense slot of an [`AssocTable`]: the list itself, or where it
/// spilled to. Both variants fit the 16 bytes of a bare `Box<[T]>`
/// (the spill index sits beside the box's non-null pointer niche).
#[derive(Debug, Clone)]
enum Slot<T> {
    /// Exact-fit list.
    Small(Box<[T]>),
    /// Index of the list in [`AssocTable::large`].
    Spilled(u32),
}

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot::Small(Vec::new().into_boxed_slice())
    }
}

/// The association table of paper Fig. 2: maps each predicate id to the
/// list of subscriptions (or DNF conjuncts, for the counting engines)
/// indexed under it.
///
/// Storage follows the paper's footnote 2 ("we use arrays instead of a
/// subscription list"): the common case — short lists; exactly one
/// entry in the paper's unique-predicate workloads — is an **exact-fit
/// boxed slice** (16 bytes of slot + 4 bytes per entry, no growth
/// slack, no allocator header bookkeeping in our accounting). Lists
/// that grow past [`LARGE_THRESHOLD`] (heavily shared predicates)
/// spill into a side vector with ordinary amortized `Vec` growth, so
/// popular predicates never pay quadratic append cost. The dense slot
/// of a spilled list records its position there, so [`get`] never
/// hashes: it is one indexed load, plus a second for spilled lists.
///
/// [`get`]: AssocTable::get
#[derive(Debug, Clone)]
pub(crate) struct AssocTable<T> {
    /// Dense by predicate index.
    slots: Vec<Slot<T>>,
    /// Spill storage for long lists. A spilled slot stays spilled (its
    /// list may shrink to empty) and keeps its entry here.
    large: Vec<Vec<T>>,
    postings: usize,
}

impl<T: Copy + PartialEq> AssocTable<T> {
    pub(crate) fn new() -> Self {
        AssocTable {
            slots: Vec::new(),
            large: Vec::new(),
            postings: 0,
        }
    }

    /// Appends `entry` to the list of `pred`.
    pub(crate) fn add(&mut self, pred: PredicateId, entry: T) {
        let idx = pred.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, Slot::empty);
        }
        self.postings += 1;

        let current = match &self.slots[idx] {
            Slot::Spilled(spill) => {
                self.large[*spill as usize].push(entry);
                return;
            }
            Slot::Small(current) => current,
        };
        if current.len() + 1 >= LARGE_THRESHOLD {
            // Promote to the spill tier.
            let mut list = Vec::with_capacity(current.len() * 2);
            list.extend_from_slice(current);
            list.push(entry);
            // At most one spilled list per predicate id, and ids are u32.
            self.slots[idx] = Slot::Spilled(self.large.len() as u32);
            self.large.push(list);
            return;
        }
        // Exact-fit rebuild: short lists only, so this stays cheap.
        let mut grown = Vec::with_capacity(current.len() + 1);
        grown.extend_from_slice(current);
        grown.push(entry);
        self.slots[idx] = Slot::Small(grown.into_boxed_slice());
    }

    /// Removes one occurrence of `entry` from the list of `pred`;
    /// returns whether it was found. Order within a list is not
    /// preserved.
    pub(crate) fn remove(&mut self, pred: PredicateId, entry: T) -> bool {
        let current = match self.slots.get(pred.index()) {
            None => return false,
            Some(Slot::Spilled(spill)) => {
                let list = &mut self.large[*spill as usize];
                let Some(pos) = list.iter().position(|e| *e == entry) else {
                    return false;
                };
                list.swap_remove(pos);
                self.postings -= 1;
                return true;
            }
            Some(Slot::Small(current)) => current,
        };
        let Some(pos) = current.iter().position(|e| *e == entry) else {
            return false;
        };
        let mut shrunk = Vec::with_capacity(current.len() - 1);
        shrunk.extend_from_slice(&current[..pos]);
        shrunk.extend_from_slice(&current[pos + 1..]);
        self.slots[pred.index()] = Slot::Small(shrunk.into_boxed_slice());
        self.postings -= 1;
        true
    }

    /// Removes all entries of `pred` for which `f` returns true;
    /// returns how many were removed. Used by counting unsubscription,
    /// where one original subscription owns many entries per predicate.
    pub(crate) fn remove_matching(&mut self, pred: PredicateId, f: impl Fn(&T) -> bool) -> usize {
        let current = match self.slots.get(pred.index()) {
            None => return 0,
            Some(Slot::Spilled(spill)) => {
                let list = &mut self.large[*spill as usize];
                let before = list.len();
                list.retain(|e| !f(e));
                let removed = before - list.len();
                self.postings -= removed;
                return removed;
            }
            Some(Slot::Small(current)) => current,
        };
        let kept: Vec<T> = current.iter().copied().filter(|e| !f(e)).collect();
        let removed = current.len() - kept.len();
        if removed > 0 {
            self.slots[pred.index()] = Slot::Small(kept.into_boxed_slice());
            self.postings -= removed;
        }
        removed
    }

    /// The entries associated with `pred` (empty slice when none).
    pub(crate) fn get(&self, pred: PredicateId) -> &[T] {
        match self.slots.get(pred.index()) {
            Some(Slot::Small(list)) => list,
            Some(Slot::Spilled(spill)) => self.large.get(*spill as usize).map_or(&[], |l| l),
            None => &[],
        }
    }

    /// Total number of postings across all lists.
    pub(crate) fn posting_count(&self) -> usize {
        self.postings
    }

    /// Approximate heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<T>();
        let slots = self.slots.capacity() * std::mem::size_of::<Slot<T>>();
        let small_entries: usize = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::Small(list) => list.len() * entry,
                Slot::Spilled(_) => 0,
            })
            .sum();
        let large = self.large.capacity() * std::mem::size_of::<Vec<T>>()
            + self
                .large
                .iter()
                .map(|l| l.capacity() * entry)
                .sum::<usize>();
        slots + small_entries + large
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PredicateId {
        PredicateId::from_index(i)
    }

    #[test]
    fn add_and_get() {
        let mut t: AssocTable<u32> = AssocTable::new();
        t.add(pid(3), 10);
        t.add(pid(3), 11);
        t.add(pid(0), 12);
        assert_eq!(t.get(pid(3)), &[10, 11]);
        assert_eq!(t.get(pid(0)), &[12]);
        assert_eq!(t.get(pid(1)), &[] as &[u32]);
        assert_eq!(t.get(pid(99)), &[] as &[u32]);
        assert_eq!(t.posting_count(), 3);
    }

    #[test]
    fn remove_from_small_list() {
        let mut t: AssocTable<u32> = AssocTable::new();
        t.add(pid(0), 1);
        t.add(pid(0), 2);
        t.add(pid(0), 3);
        assert!(t.remove(pid(0), 1));
        assert!(!t.remove(pid(0), 1));
        let mut left = t.get(pid(0)).to_vec();
        left.sort();
        assert_eq!(left, vec![2, 3]);
        assert_eq!(t.posting_count(), 2);
    }

    #[test]
    fn remove_from_unknown_pred_is_false() {
        let mut t: AssocTable<u32> = AssocTable::new();
        assert!(!t.remove(pid(5), 1));
    }

    #[test]
    fn long_lists_spill_and_keep_working() {
        let mut t: AssocTable<u32> = AssocTable::new();
        let n = LARGE_THRESHOLD * 4;
        for i in 0..n as u32 {
            t.add(pid(7), i);
        }
        assert_eq!(t.get(pid(7)).len(), n);
        assert_eq!(t.posting_count(), n);
        // Every entry is present.
        let mut got = t.get(pid(7)).to_vec();
        got.sort();
        assert_eq!(got, (0..n as u32).collect::<Vec<_>>());
        // Removal still works in the spilled representation.
        assert!(t.remove(pid(7), 100));
        assert!(!t.remove(pid(7), 100));
        assert_eq!(t.posting_count(), n - 1);
    }

    #[test]
    fn remove_matching_works_in_both_tiers() {
        let mut t: AssocTable<u32> = AssocTable::new();
        for i in 0..10u32 {
            t.add(pid(0), i);
        }
        for i in 0..200u32 {
            t.add(pid(1), i);
        }
        assert_eq!(t.remove_matching(pid(0), |e| e % 2 == 0), 5);
        assert_eq!(t.get(pid(0)).len(), 5);
        assert_eq!(t.remove_matching(pid(1), |e| *e < 50), 50);
        assert_eq!(t.get(pid(1)).len(), 150);
        assert_eq!(t.posting_count(), 5 + 150);
        assert_eq!(t.remove_matching(pid(2), |_| true), 0);
    }

    #[test]
    fn spilled_lists_are_found_without_hashing() {
        let mut t: AssocTable<u32> = AssocTable::new();
        // Two spilled lists and one short one, interleaved.
        for i in 0..LARGE_THRESHOLD as u32 * 2 {
            t.add(pid(2), i);
            t.add(pid(9), 1_000 + i);
        }
        t.add(pid(5), 7);
        assert!(matches!(t.slots[2], Slot::Spilled(0)));
        assert!(matches!(t.slots[9], Slot::Spilled(1)));
        assert!(t.get(pid(2)).iter().all(|&e| e < 1_000));
        assert!(t.get(pid(9)).iter().all(|&e| e >= 1_000));
        assert_eq!(t.get(pid(5)), &[7]);
        // A spilled list emptied by removal stays spilled and empty.
        assert_eq!(t.remove_matching(pid(2), |_| true), LARGE_THRESHOLD * 2);
        assert_eq!(t.get(pid(2)), &[] as &[u32]);
        t.add(pid(2), 3);
        assert_eq!(t.get(pid(2)), &[3]);
    }

    #[test]
    fn a_slot_is_as_small_as_a_boxed_slice() {
        assert_eq!(
            std::mem::size_of::<Slot<u32>>(),
            std::mem::size_of::<Box<[u32]>>()
        );
    }

    #[test]
    fn exact_fit_memory_for_singleton_lists() {
        let mut t: AssocTable<u32> = AssocTable::new();
        for i in 0..1_000 {
            t.add(pid(i), i as u32);
        }
        // 16-byte slot + 4-byte entry per predicate, no slack.
        let per_pred = t.heap_bytes() as f64 / 1_000.0;
        assert!(
            per_pred <= 24.0,
            "expected near 20 B/pred for singleton lists, got {per_pred}"
        );
    }
}
