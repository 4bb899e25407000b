//! Property tests for the EventSet bitset algebra.

use proptest::prelude::*;
use uarch_trace::{EventClass, EventSet};

fn arb_set() -> impl Strategy<Value = EventSet> {
    (0u8..=255).prop_map(|bits| {
        EventClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect()
    })
}

proptest! {
    #[test]
    fn union_is_commutative_and_idempotent(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.union(a), a);
    }

    #[test]
    fn difference_and_intersection_partition(a in arb_set(), b in arb_set()) {
        let inter = a.intersection(b);
        let diff = a.difference(b);
        prop_assert!(inter.intersection(diff).is_empty());
        prop_assert_eq!(inter.union(diff), a);
    }

    #[test]
    fn subsets_count_is_power_of_two(a in arb_set()) {
        let count = a.subsets().count();
        prop_assert_eq!(count, 1usize << a.len());
        // Every enumerated subset is a genuine subset, exactly once.
        let mut seen: Vec<EventSet> = a.subsets().collect();
        seen.sort();
        let before = seen.len();
        seen.dedup();
        prop_assert_eq!(seen.len(), before);
        prop_assert!(a.subsets().all(|s| s.is_subset_of(a)));
    }

    #[test]
    fn display_roundtrips_through_names(a in arb_set()) {
        if a.is_empty() {
            prop_assert_eq!(a.to_string(), "(none)");
        } else {
            let rebuilt: EventSet = a
                .to_string()
                .split('+')
                .map(|n| EventClass::from_name(n).expect("valid name"))
                .collect();
            prop_assert_eq!(rebuilt, a);
        }
    }

    #[test]
    fn insert_remove_inverse(a in arb_set(), idx in 0usize..8) {
        let c = EventClass::ALL[idx];
        let mut s = a;
        s.insert(c);
        prop_assert!(s.contains(c));
        s.remove(c);
        prop_assert!(!s.contains(c));
        prop_assert_eq!(s, a.difference(EventSet::single(c)));
    }

    #[test]
    fn subset_relation_matches_membership(a in arb_set(), b in arb_set()) {
        let is_subset = a.iter().all(|c| b.contains(c));
        prop_assert_eq!(a.is_subset_of(b), is_subset);
    }

    /// `EventSet::parse` sits at the trust boundary (query bodies name
    /// sets on the wire): arbitrary input must come back `Ok` or `Err`,
    /// never panic, and an `Ok` must name exactly the classes spelled.
    #[test]
    fn parse_accepts_or_rejects_arbitrary_text(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        pieces in prop::collection::vec((0usize..14, 0u8..4), 0..10),
    ) {
        // Raw bytes, lossily decoded: control chars, multi-byte UTF-8,
        // replacement characters.
        let _ = EventSet::parse(&String::from_utf8_lossy(&raw));
        // Near-valid text: names, near-miss names, separators, padding.
        const WORDS: [&str; 14] = [
            "dl1", "win", "bw", "bmisp", "dmiss", "shalu", "lgalu", "imiss",
            "(none)", "", "DMISS", "shortalu", "dmiss\u{0}", "\u{e9}",
        ];
        let mut text = String::new();
        for &(w, sep) in &pieces {
            text.push_str(WORDS[w]);
            text.push_str(["+", " + ", "++", "\t"][sep as usize]);
        }
        if let Ok(set) = EventSet::parse(&text) {
            let named: EventSet = text
                .split('+')
                .filter_map(|n| EventClass::from_name(n.trim()))
                .collect();
            prop_assert_eq!(set, named, "{:?}", text);
            prop_assert_eq!(EventSet::parse(&set.to_string()), Ok(set));
        }
    }
}
