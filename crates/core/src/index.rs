//! The search structure behind the segment and block trees.
//!
//! Gallatin's contribution is using a concurrent vEB tree here; the
//! ablation benchmarks (DESIGN.md E14) need the same allocator running on
//! a flat linear-scan bitmap to quantify what the tree buys. Both — and
//! the wide-scan variant between them — are the one [`VebTree`] built
//! with a different leaf-scan budget; [`crate::GallatinConfig::search`]
//! selects which.

use veb::VebTree;

/// Which search strategy backs the segment/block indexes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchStructure {
    /// The paper's concurrent van Emde Boas tree: every search climbs
    /// the summary hierarchy.
    Veb,
    /// The vEB tree with a bounded word-parallel leaf scan in front of
    /// the summary climb (E21 A/B). Identical results, different load
    /// pattern. What the stock configurations build.
    VebWide,
    /// The leaf bitmap alone, searched by linear word scans (ablation
    /// baseline).
    FlatScan,
}

impl SearchStructure {
    /// An empty index over `{0, …, universe−1}` searched this way.
    pub fn index(self, universe: u64) -> VebTree {
        match self {
            SearchStructure::Veb => VebTree::new(universe),
            SearchStructure::VebWide => VebTree::new_wide(universe),
            SearchStructure::FlatScan => VebTree::new_flat(universe),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_expose_identical_behaviour() {
        for kind in [SearchStructure::Veb, SearchStructure::VebWide, SearchStructure::FlatScan] {
            let s = kind.index(200);
            s.fill();
            assert_eq!(s.count(), 200);
            assert_eq!(s.claim_first_ge(0), Some(0));
            assert_eq!(s.successor(0), Some(1));
            assert_eq!(s.find_first_from(199), Some(199));
            assert_eq!(s.claim_first_from(199), Some(199));
            assert_eq!(s.find_first_from(199), Some(1)); // wraps
            assert_eq!(s.claim_first_from(199), Some(1)); // wraps
            s.insert(199);
            s.insert(1);
            assert_eq!(s.claim_contiguous_from_back(3), Some(197));
            assert!(!s.contains(197));
            assert!(s.contains(196));
            assert!(!s.claim_exact(197));
            s.insert_range(197, 3);
            assert!(s.claim_exact(197));
            s.clear();
            assert_eq!(s.count(), 0);
            assert!(s.insert(5));
            assert_eq!(s.claim_first_ge(0), Some(5));
            // Only the flat selector drops the summary levels.
            assert_eq!(s.height(), if kind == SearchStructure::FlatScan { 1 } else { 2 });
        }
    }
}
