//! The leaf set: the `l` nodes with nodeIds numerically closest to the
//! present node (`l/2` larger, `l/2` smaller).
//!
//! The leaf set anchors both routing correctness (a message whose key
//! falls within the leaf-set range is delivered to the numerically
//! closest member in one hop) and PAST's storage invariant (the `k`
//! replica holders of a file are, by construction, within the leaf sets
//! of one another, which is what makes replica diversion a purely local
//! operation).

use past_id::NodeId;
use past_net::Addr;

/// A known node: identifier plus network address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct NodeEntry {
    /// The node's Pastry identifier.
    pub id: NodeId,
    /// The node's emulated network address.
    pub addr: Addr,
}

impl NodeEntry {
    /// Convenience constructor.
    pub fn new(id: NodeId, addr: Addr) -> Self {
        NodeEntry { id, addr }
    }
}

/// The leaf set of one node.
#[derive(Clone, Debug)]
pub struct LeafSet {
    own: NodeId,
    half: usize,
    /// Nodes counter-clockwise of `own` (numerically smaller, with
    /// wraparound), sorted nearest-first.
    smaller: Vec<NodeEntry>,
    /// Nodes clockwise of `own`, sorted nearest-first.
    larger: Vec<NodeEntry>,
}

impl LeafSet {
    /// Creates an empty leaf set for a node with identifier `own`,
    /// keeping up to `half` entries per side.
    pub fn new(own: NodeId, half: usize) -> Self {
        assert!(half >= 1, "leaf set must keep at least one node per side");
        LeafSet {
            own,
            half,
            smaller: Vec::with_capacity(half),
            larger: Vec::with_capacity(half),
        }
    }

    /// The owning node's identifier.
    pub fn own_id(&self) -> NodeId {
        self.own
    }

    /// Entries per side.
    pub fn half(&self) -> usize {
        self.half
    }

    /// Returns `true` if `id` belongs on the clockwise ("larger") side.
    fn is_cw(&self, id: NodeId) -> bool {
        self.own.cw_distance(id) <= self.own.ccw_distance(id)
    }

    /// Inserts a node, evicting the farthest member of its side when full.
    /// Returns `true` if the set changed.
    pub fn insert(&mut self, entry: NodeEntry) -> bool {
        if entry.id == self.own {
            return false;
        }
        let own = self.own;
        if self.is_cw(entry.id) {
            let half = self.half;
            Self::insert_side(&mut self.larger, entry, half, |id| own.cw_distance(id))
        } else {
            let half = self.half;
            Self::insert_side(&mut self.smaller, entry, half, |id| own.ccw_distance(id))
        }
    }

    /// Inserts `entry` into one side, kept sorted by `dist` from `own`.
    /// This is the only writer of either side, and `dist` is injective,
    /// so an exact hit of the binary search means `entry.id` is already
    /// a member: no separate membership scan is needed.
    fn insert_side(
        side: &mut Vec<NodeEntry>,
        entry: NodeEntry,
        half: usize,
        dist: impl Fn(NodeId) -> u128,
    ) -> bool {
        let d = dist(entry.id);
        let Err(pos) = side.binary_search_by(|e| dist(e.id).cmp(&d)) else {
            return false;
        };
        if pos >= half {
            return false;
        }
        side.insert(pos, entry);
        side.truncate(half);
        true
    }

    /// Removes a node by identifier. Returns its entry if present.
    pub fn remove(&mut self, id: NodeId) -> Option<NodeEntry> {
        for side in [&mut self.smaller, &mut self.larger] {
            if let Some(pos) = side.iter().position(|e| e.id == id) {
                return Some(side.remove(pos));
            }
        }
        None
    }

    /// Returns `true` if `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.smaller.iter().any(|e| e.id == id) || self.larger.iter().any(|e| e.id == id)
    }

    /// Iterates over all members (both sides), no particular order.
    pub fn members(&self) -> impl Iterator<Item = &NodeEntry> {
        self.smaller.iter().chain(self.larger.iter())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.smaller.len() + self.larger.len()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The farthest member on each side (counter-clockwise extreme,
    /// clockwise extreme), if present. PAST's §3.5 overflow handling asks
    /// exactly these two nodes to search *their* leaf sets for space.
    pub fn extremes(&self) -> (Option<NodeEntry>, Option<NodeEntry>) {
        (self.smaller.last().copied(), self.larger.last().copied())
    }

    /// Whether `key` falls within the leaf-set range, i.e. between the
    /// extreme members (inclusive). If either side is not full, this node
    /// knows every node on that arc, so the range extends accordingly and
    /// we report coverage (routing then resolves to the closest member).
    pub fn covers(&self, key: NodeId) -> bool {
        if self.smaller.len() < self.half || self.larger.len() < self.half {
            return true;
        }
        let low = self.smaller.last().expect("side full").id;
        let high = self.larger.last().expect("side full").id;
        // The covered arc runs clockwise from `low` through `own` to `high`.
        low.cw_distance(key) <= low.cw_distance(high)
    }

    /// The member (or the node itself) numerically closest to `key`.
    pub fn closest(&self, key: NodeId) -> NodeEntry {
        let mut best: Option<NodeEntry> = None;
        for e in self.members() {
            match best {
                None => best = Some(*e),
                Some(b) => {
                    if e.id.closer_to(key, b.id) {
                        best = Some(*e);
                    }
                }
            }
        }
        // Compare against self (address unknown here, so the caller passes
        // its own entry); we return the best member and let the caller
        // compare with itself via `closer_to`.
        best.unwrap_or(NodeEntry::new(self.own, Addr(u32::MAX)))
    }

    /// The `k` nodes numerically closest to `key` among this node and its
    /// leaf set — PAST's candidate replica holders for a file with this
    /// key. `own_addr` supplies this node's address for the self entry.
    pub fn replica_candidates(&self, key: NodeId, k: usize, own_addr: Addr) -> Vec<NodeEntry> {
        // Hot path: runs on every insert attempt at the coordinator.
        // Distances are computed once per entry (not per comparison),
        // and only the k survivors are fully sorted — the partition
        // step is O(n). Result is identical to sorting everything by
        // (ring distance, id) and truncating.
        let mut all: Vec<(u128, NodeEntry)> = self
            .members()
            .map(|e| (e.id.ring_distance(key), *e))
            .collect();
        all.push((self.own.ring_distance(key), NodeEntry::new(self.own, own_addr)));
        let cmp = |a: &(u128, NodeEntry), b: &(u128, NodeEntry)| {
            a.0.cmp(&b.0).then(a.1.id.cmp(&b.1.id))
        };
        if k == 0 {
            return Vec::new();
        }
        if all.len() > k {
            all.select_nth_unstable_by(k - 1, cmp);
            all.truncate(k);
        }
        all.sort_unstable_by(cmp);
        all.into_iter().map(|(_, e)| e).collect()
    }

    /// Returns `true` if this node is among the `k` numerically closest
    /// to `key`, judged from its local leaf set. Equivalent to checking
    /// membership in [`LeafSet::replica_candidates`] but allocation-free
    /// (this test runs on every forwarded insert).
    pub fn is_among_k_closest(&self, key: NodeId, k: usize, own_addr: Addr) -> bool {
        let _ = own_addr;
        let closer = self
            .members()
            .filter(|e| e.id.closer_to(key, self.own))
            .count();
        closer < k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(v: u128) -> NodeEntry {
        NodeEntry::new(NodeId::from_u128(v), Addr(v as u32))
    }

    fn set_with(own: u128, half: usize, ids: &[u128]) -> LeafSet {
        let mut ls = LeafSet::new(NodeId::from_u128(own), half);
        for &id in ids {
            ls.insert(entry(id));
        }
        ls
    }

    #[test]
    fn insert_splits_sides() {
        let ls = set_with(100, 2, &[90, 95, 105, 110]);
        assert_eq!(ls.len(), 4);
        assert!(ls.contains(NodeId::from_u128(90)));
        assert!(ls.contains(NodeId::from_u128(110)));
    }

    #[test]
    fn eviction_keeps_nearest() {
        let ls = set_with(100, 2, &[90, 95, 97, 80]);
        // Smaller side holds only the two nearest: 97 and 95.
        assert!(ls.contains(NodeId::from_u128(97)));
        assert!(ls.contains(NodeId::from_u128(95)));
        assert!(!ls.contains(NodeId::from_u128(90)));
        assert!(!ls.contains(NodeId::from_u128(80)));
    }

    #[test]
    fn duplicate_and_self_inserts_rejected() {
        let mut ls = set_with(100, 2, &[90]);
        assert!(!ls.insert(entry(90)));
        assert!(!ls.insert(entry(100)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn remove_returns_entry() {
        let mut ls = set_with(100, 2, &[90, 110]);
        let removed = ls.remove(NodeId::from_u128(110)).unwrap();
        assert_eq!(removed.addr, Addr(110));
        assert!(!ls.contains(NodeId::from_u128(110)));
        assert!(ls.remove(NodeId::from_u128(110)).is_none());
    }

    #[test]
    fn wraparound_sides() {
        // Node near the top of the ring: slightly larger ids wrap to 0+.
        let own = u128::MAX - 5;
        let ls = set_with(own, 2, &[u128::MAX - 1, 3, u128::MAX - 10, u128::MAX - 20]);
        // u128::MAX-1 and 3 are clockwise (larger side with wraparound).
        let (ccw, cw) = ls.extremes();
        assert_eq!(cw.unwrap().id, NodeId::from_u128(3));
        assert_eq!(ccw.unwrap().id, NodeId::from_u128(u128::MAX - 20));
    }

    #[test]
    fn covers_within_range() {
        let ls = set_with(100, 2, &[80, 90, 110, 120]);
        assert!(ls.covers(NodeId::from_u128(100)));
        assert!(ls.covers(NodeId::from_u128(85)));
        assert!(ls.covers(NodeId::from_u128(80)));
        assert!(ls.covers(NodeId::from_u128(120)));
        assert!(!ls.covers(NodeId::from_u128(79)));
        assert!(!ls.covers(NodeId::from_u128(121)));
        assert!(!ls.covers(NodeId::from_u128(u128::MAX / 2)));
    }

    #[test]
    fn covers_everything_when_not_full() {
        let ls = set_with(100, 2, &[90, 110]);
        assert!(ls.covers(NodeId::from_u128(u128::MAX / 2)));
    }

    #[test]
    fn closest_finds_nearest_member() {
        let ls = set_with(100, 2, &[80, 90, 110, 120]);
        assert_eq!(ls.closest(NodeId::from_u128(111)).id, NodeId::from_u128(110));
        assert_eq!(ls.closest(NodeId::from_u128(84)).id, NodeId::from_u128(80));
    }

    #[test]
    fn replica_candidates_sorted_by_distance() {
        let ls = set_with(100, 3, &[80, 90, 110, 120, 130]);
        let reps = ls.replica_candidates(NodeId::from_u128(105), 3, Addr(100));
        let ids: Vec<u128> = reps.iter().map(|e| e.id.as_u128()).collect();
        assert_eq!(ids, vec![100, 110, 90]);
    }

    #[test]
    fn is_among_k_closest() {
        let ls = set_with(100, 3, &[80, 90, 110, 120, 130]);
        assert!(ls.is_among_k_closest(NodeId::from_u128(99), 1, Addr(100)));
        assert!(!ls.is_among_k_closest(NodeId::from_u128(121), 1, Addr(100)));
        // Key 101: distances are 100→1, 110→9, 90→11, so own is in the top 3.
        assert!(ls.is_among_k_closest(NodeId::from_u128(101), 3, Addr(100)));
        // Key 121: distances are 120→1, 130→9, 110→11; own (21) is not.
        assert!(!ls.is_among_k_closest(NodeId::from_u128(121), 3, Addr(100)));
    }

    /// The insert algorithm before the membership scan was folded into
    /// the binary search: scan both sides, then place by distance.
    fn reference_insert(ls: &mut LeafSet, entry: NodeEntry) -> bool {
        if entry.id == ls.own || ls.members().any(|e| e.id == entry.id) {
            return false;
        }
        let (own, cw) = (ls.own, ls.is_cw(entry.id));
        let dist = |id| {
            if cw {
                own.cw_distance(id)
            } else {
                own.ccw_distance(id)
            }
        };
        let side = if cw { &mut ls.larger } else { &mut ls.smaller };
        let pos = side
            .binary_search_by(|e| dist(e.id).cmp(&dist(entry.id)))
            .unwrap_or_else(|p| p);
        if pos >= ls.half {
            return false;
        }
        side.insert(pos, entry);
        side.truncate(ls.half);
        true
    }

    proptest! {
        /// Random insert/remove sequences over a small id pool (so
        /// duplicates, re-inserts and evictions are common, on both
        /// sides and across the wrap point) leave the set and every
        /// return value exactly as the reference algorithm does.
        #[test]
        fn prop_insert_matches_reference(
            own in 0u128..16,
            half in 1usize..5,
            ops in prop::collection::vec((0u8..4, 0u128..32), 0..200),
        ) {
            // Ids straddle zero so both sides see wraparound.
            let id = |v: u128| v.wrapping_sub(16);
            let own = NodeId::from_u128(id(own));
            let mut fast = LeafSet::new(own, half);
            let mut reference = LeafSet::new(own, half);
            for (op, v) in ops {
                let e = entry(id(v));
                if op < 3 {
                    prop_assert_eq!(fast.insert(e), reference_insert(&mut reference, e));
                } else {
                    prop_assert_eq!(fast.remove(e.id), reference.remove(e.id));
                }
                prop_assert_eq!(&fast.smaller, &reference.smaller);
                prop_assert_eq!(&fast.larger, &reference.larger);
            }
        }

        #[test]
        fn prop_sides_never_exceed_half(own: u128, ids: Vec<u128>, half in 1usize..8) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), half);
            for id in ids {
                ls.insert(entry(id));
            }
            prop_assert!(ls.smaller.len() <= half);
            prop_assert!(ls.larger.len() <= half);
        }

        #[test]
        fn prop_sides_sorted_nearest_first(own: u128, ids: Vec<u128>, half in 1usize..8) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), half);
            for id in ids {
                ls.insert(entry(id));
            }
            let o = NodeId::from_u128(own);
            for w in ls.smaller.windows(2) {
                prop_assert!(o.ccw_distance(w[0].id) <= o.ccw_distance(w[1].id));
            }
            for w in ls.larger.windows(2) {
                prop_assert!(o.cw_distance(w[0].id) <= o.cw_distance(w[1].id));
            }
        }

        #[test]
        fn prop_kept_members_are_the_nearest_per_side(own: u128, ids: Vec<u128>, half in 1usize..4) {
            // After inserting everything, each side must contain exactly the
            // `half` nearest ids on that side (dedup'd, excluding own).
            let o = NodeId::from_u128(own);
            let mut ls = LeafSet::new(o, half);
            let mut uniq: Vec<u128> = ids.clone();
            uniq.sort();
            uniq.dedup();
            uniq.retain(|&v| v != own);
            for &id in &uniq {
                ls.insert(entry(id));
            }
            let mut cw: Vec<u128> = uniq
                .iter()
                .copied()
                .filter(|&v| o.cw_distance(NodeId::from_u128(v)) <= o.ccw_distance(NodeId::from_u128(v)))
                .collect();
            cw.sort_by_key(|&v| o.cw_distance(NodeId::from_u128(v)));
            cw.truncate(half);
            let mut got: Vec<u128> = ls.larger.iter().map(|e| e.id.as_u128()).collect();
            got.sort_by_key(|&v| o.cw_distance(NodeId::from_u128(v)));
            prop_assert_eq!(got, cw);
        }

        #[test]
        fn prop_replica_candidates_closest_first(own: u128, ids: Vec<u128>, key: u128, k in 1usize..6) {
            let mut ls = LeafSet::new(NodeId::from_u128(own), 8);
            for id in ids {
                ls.insert(entry(id));
            }
            let keyn = NodeId::from_u128(key);
            let reps = ls.replica_candidates(keyn, k, Addr(0));
            prop_assert!(reps.len() <= k);
            for w in reps.windows(2) {
                prop_assert!(w[0].id.ring_distance(keyn) <= w[1].id.ring_distance(keyn));
            }
        }
    }
}
