//! The byte-weighted cache stack of Algorithm 1.
//!
//! SpaceGEN's generation phase maintains, per location, an LRU-like stack
//! of objects. Each step pops the top object, emits a request, and
//! re-inserts the object at a *byte* stack distance `d` sampled from the
//! pFD — i.e. at the first position `j` such that the entries above `j`
//! total at least `d` bytes. A treap augmented with subtree byte sums
//! provides O(log n) pop-front / push-back / insert-at-byte-offset.

use starcdn_cache::object::ObjectId;

/// An object resident in the generation stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    pub object: ObjectId,
    /// Target number of requests this object must receive at this
    /// location (its popularity from the GPD sample).
    pub popularity: u32,
    /// Object size in bytes.
    pub size: u64,
}

#[derive(Debug)]
struct Node {
    entry: StackEntry,
    priority: u64,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
    subtree_len: usize,
    subtree_bytes: u64,
}

impl Node {
    fn new(entry: StackEntry, priority: u64) -> Box<Node> {
        Box::new(Node {
            subtree_len: 1,
            subtree_bytes: entry.size,
            entry,
            priority,
            left: None,
            right: None,
        })
    }

    fn update(&mut self) {
        self.subtree_len = 1 + len(&self.left) + len(&self.right);
        self.subtree_bytes = self.entry.size + bytes(&self.left) + bytes(&self.right);
    }
}

fn len(n: &Option<Box<Node>>) -> usize {
    n.as_ref().map_or(0, |n| n.subtree_len)
}

fn bytes(n: &Option<Box<Node>>) -> u64 {
    n.as_ref().map_or(0, |n| n.subtree_bytes)
}

fn merge(a: Option<Box<Node>>, b: Option<Box<Node>>) -> Option<Box<Node>> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut a), Some(mut b)) => {
            if a.priority >= b.priority {
                a.right = merge(a.right.take(), Some(b));
                a.update();
                Some(a)
            } else {
                b.left = merge(Some(a), b.left.take());
                b.update();
                Some(b)
            }
        }
    }
}

/// Split into (prefix, suffix) where `prefix` is the minimal prefix whose
/// byte total is ≥ `d` (empty if `d == 0`).
fn split_bytes(t: Option<Box<Node>>, d: u64) -> (Option<Box<Node>>, Option<Box<Node>>) {
    let Some(mut t) = t else { return (None, None) };
    if d == 0 {
        return (None, Some(t));
    }
    let lb = bytes(&t.left);
    if lb >= d {
        let (a, b) = split_bytes(t.left.take(), d);
        t.left = b;
        t.update();
        (a, Some(t))
    } else if lb + t.entry.size >= d {
        // This node completes the prefix.
        let right = t.right.take();
        t.update();
        (Some(t), right)
    } else {
        let need = d - lb - t.entry.size;
        let (a, b) = split_bytes(t.right.take(), need);
        t.right = a;
        t.update();
        (Some(t), b)
    }
}

/// Deterministic priority stream (splitmix64).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generation stack: a sequence of [`StackEntry`] ordered from cache
/// top (front) to bottom (back).
#[derive(Debug, Default)]
pub struct CacheStack {
    root: Option<Box<Node>>,
    counter: u64,
}

impl CacheStack {
    /// An empty stack.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of objects in the stack.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        len(&self.root)
    }

    /// True when the stack holds no objects.
    pub(crate) fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Total bytes of all objects in the stack.
    pub(crate) fn total_bytes(&self) -> u64 {
        bytes(&self.root)
    }

    fn next_priority(&mut self) -> u64 {
        self.counter += 1;
        mix(self.counter)
    }

    /// Append at the bottom (used during the initialization phase).
    pub(crate) fn push_back(&mut self, entry: StackEntry) {
        let node = Node::new(entry, self.next_priority());
        self.root = merge(self.root.take(), Some(node));
    }

    /// Remove and return the top-of-stack entry.
    pub(crate) fn pop_front(&mut self) -> Option<StackEntry> {
        fn pop_leftmost(mut t: Box<Node>) -> (Option<Box<Node>>, StackEntry) {
            if let Some(l) = t.left.take() {
                let (rest, e) = pop_leftmost(l);
                t.left = rest;
                t.update();
                (Some(t), e)
            } else {
                (t.right.take(), t.entry)
            }
        }
        let root = self.root.take()?;
        let (rest, e) = pop_leftmost(root);
        self.root = rest;
        Some(e)
    }

    /// Peek at the top-of-stack entry.
    #[cfg(test)]
    pub(crate) fn peek_front(&self) -> Option<&StackEntry> {
        let mut cur = self.root.as_ref()?;
        while let Some(l) = cur.left.as_ref() {
            cur = l;
        }
        Some(&cur.entry)
    }

    /// Insert so that the bytes *above* the new entry total at least
    /// `byte_offset` (Algorithm 1 line 28). Offsets beyond the stack's
    /// total append at the bottom.
    pub(crate) fn insert_at_bytes(&mut self, byte_offset: u64, entry: StackEntry) {
        let node = Node::new(entry, self.next_priority());
        let (a, b) = split_bytes(self.root.take(), byte_offset);
        self.root = merge(merge(a, Some(node)), b);
    }

    /// Drain the stack top-to-bottom (test/diagnostic helper).
    #[cfg(test)]
    pub(crate) fn drain_in_order(&mut self) -> Vec<StackEntry> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(e) = self.pop_front() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(obj: u64, size: u64) -> StackEntry {
        StackEntry { object: ObjectId(obj), popularity: 1, size }
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut s = CacheStack::new();
        for i in 0..10 {
            s.push_back(e(i, 10));
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.total_bytes(), 100);
        for i in 0..10 {
            assert_eq!(s.pop_front().unwrap().object, ObjectId(i));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut s = CacheStack::new();
        s.push_back(e(1, 5));
        s.push_back(e(2, 5));
        assert_eq!(s.peek_front().unwrap().object, ObjectId(1));
        assert_eq!(s.pop_front().unwrap().object, ObjectId(1));
        assert_eq!(s.peek_front().unwrap().object, ObjectId(2));
    }

    #[test]
    fn insert_at_zero_is_push_front() {
        let mut s = CacheStack::new();
        s.push_back(e(1, 10));
        s.insert_at_bytes(0, e(2, 10));
        assert_eq!(s.pop_front().unwrap().object, ObjectId(2));
    }

    #[test]
    fn insert_at_bytes_places_below_prefix() {
        let mut s = CacheStack::new();
        for i in 0..5 {
            s.push_back(e(i, 10)); // stack: 0,1,2,3,4 (10 B each)
        }
        // Offset 25 → minimal prefix ≥ 25 B is {0,1,2} (30 B) → insert after 2.
        s.insert_at_bytes(25, e(99, 10));
        let order: Vec<u64> = s.drain_in_order().iter().map(|x| x.object.0).collect();
        assert_eq!(order, vec![0, 1, 2, 99, 3, 4]);
    }

    #[test]
    fn insert_at_exact_boundary() {
        let mut s = CacheStack::new();
        for i in 0..3 {
            s.push_back(e(i, 10));
        }
        // Offset 20 → prefix {0,1} exactly.
        s.insert_at_bytes(20, e(99, 10));
        let order: Vec<u64> = s.drain_in_order().iter().map(|x| x.object.0).collect();
        assert_eq!(order, vec![0, 1, 99, 2]);
    }

    #[test]
    fn insert_beyond_total_appends() {
        let mut s = CacheStack::new();
        s.push_back(e(1, 10));
        s.insert_at_bytes(1_000_000, e(2, 10));
        let order: Vec<u64> = s.drain_in_order().iter().map(|x| x.object.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn byte_totals_maintained() {
        let mut s = CacheStack::new();
        s.push_back(e(1, 100));
        s.insert_at_bytes(50, e(2, 200));
        assert_eq!(s.total_bytes(), 300);
        s.pop_front();
        assert_eq!(s.total_bytes(), 200);
    }

    proptest! {
        #[test]
        fn prop_matches_naive_vec_model(
            ops in proptest::collection::vec((0u64..2000, 1u64..100, 0u8..3), 1..300)
        ) {
            // Reference model: a Vec with linear-scan insertion.
            let mut s = CacheStack::new();
            let mut model: Vec<StackEntry> = Vec::new();
            let mut next_obj = 0u64;
            for (offset, size, op) in ops {
                match op {
                    0 => {
                        let entry = e(next_obj, size);
                        next_obj += 1;
                        s.push_back(entry);
                        model.push(entry);
                    }
                    1 => {
                        let got = s.pop_front();
                        let want = if model.is_empty() { None } else { Some(model.remove(0)) };
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let entry = e(next_obj, size);
                        next_obj += 1;
                        s.insert_at_bytes(offset, entry);
                        // Find minimal prefix with bytes >= offset.
                        let mut acc = 0u64;
                        let mut pos = model.len();
                        if offset == 0 {
                            pos = 0;
                        } else {
                            for (i, m) in model.iter().enumerate() {
                                acc += m.size;
                                if acc >= offset {
                                    pos = i + 1;
                                    break;
                                }
                            }
                        }
                        model.insert(pos, entry);
                    }
                }
                prop_assert_eq!(s.len(), model.len());
                prop_assert_eq!(s.total_bytes(), model.iter().map(|m| m.size).sum::<u64>());
            }
            let drained = s.drain_in_order();
            prop_assert_eq!(drained, model);
        }
    }
}
