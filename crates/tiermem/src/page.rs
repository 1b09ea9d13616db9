//! Page, tier, and workload identifiers.
//!
//! These are the vocabulary types shared by every layer of the system:
//! the page table ([`crate::memory::TieredMemory`]), the histograms, the
//! sampler, and the policies built on top.

use std::fmt;

/// Identifier of a simulated physical page.
///
/// Pages are numbered densely from zero in registration order, so a
/// `PageId` can index directly into the page table. The newtype prevents
/// accidental mixing with workload-local page ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Returns the raw index of this page in the global page table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Identifier of a registered workload (tenant).
///
/// Workload 0 is, by convention in the experiment harness, the
/// latency-critical workload; best-effort workloads follow. Nothing in
/// the substrate depends on that convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadId(pub u16);

impl WorkloadId {
    /// Returns the raw index of this workload.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload#{}", self.0)
    }
}

/// The two memory tiers of the system.
///
/// The paper's FMem is local DRAM (~73 ns loads); SMem is CXL-attached or
/// NUMA-remote DRAM (~202 ns loads). See [`crate::FMEM_LATENCY_NS`] and
/// [`crate::SMEM_LATENCY_NS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The fast tier (local DRAM).
    FMem,
    /// The slow tier (CXL / remote DRAM).
    SMem,
}

impl Tier {
    /// Returns the opposite tier.
    ///
    /// ```
    /// use mtat_tiermem::page::Tier;
    /// assert_eq!(Tier::FMem.other(), Tier::SMem);
    /// assert_eq!(Tier::SMem.other(), Tier::FMem);
    /// ```
    #[inline]
    pub fn other(self) -> Tier {
        match self {
            Tier::FMem => Tier::SMem,
            Tier::SMem => Tier::FMem,
        }
    }

    /// Returns `true` for the fast tier.
    #[inline]
    pub fn is_fast(self) -> bool {
        matches!(self, Tier::FMem)
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::FMem => write!(f, "FMem"),
            Tier::SMem => write!(f, "SMem"),
        }
    }
}

/// A contiguous range of pages owned by one workload.
///
/// Workload-local page *ranks* (0..n_pages) map to global [`PageId`]s by
/// adding `base`. Workload models index their popularity distributions by
/// rank; the substrate deals in global ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRegion {
    /// Global id of the first page in the region.
    pub base: u32,
    /// Number of pages in the region.
    pub n_pages: u32,
}

impl PageRegion {
    /// Returns the global [`PageId`] of the page at workload-local `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.n_pages`.
    #[inline]
    pub fn page(&self, rank: u32) -> PageId {
        assert!(
            rank < self.n_pages,
            "rank {rank} out of region ({})",
            self.n_pages
        );
        PageId(self.base + rank)
    }

    /// Returns the workload-local rank of a global page id, or `None` if
    /// the page is outside this region.
    #[inline]
    pub fn rank_of(&self, page: PageId) -> Option<u32> {
        let idx = page.0;
        if idx >= self.base && idx < self.base + self.n_pages {
            Some(idx - self.base)
        } else {
            None
        }
    }

    /// Iterates over all global page ids in the region.
    pub fn iter(self) -> impl Iterator<Item = PageId> {
        (self.base..self.base + self.n_pages).map(PageId)
    }

    /// Number of pages in the region as `usize`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_pages as usize
    }

    /// Returns `true` if the region contains no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_pages == 0
    }
}

impl mtat_snapshot::Snap for PageRegion {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u32(self.base);
        w.put_u32(self.n_pages);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            base: r.get_u32()?,
            n_pages: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_other_roundtrip() {
        assert_eq!(Tier::FMem.other().other(), Tier::FMem);
        assert!(Tier::FMem.is_fast());
        assert!(!Tier::SMem.is_fast());
    }

    #[test]
    fn region_rank_mapping() {
        let r = PageRegion {
            base: 10,
            n_pages: 4,
        };
        assert_eq!(r.page(0), PageId(10));
        assert_eq!(r.page(3), PageId(13));
        assert_eq!(r.rank_of(PageId(12)), Some(2));
        assert_eq!(r.rank_of(PageId(9)), None);
        assert_eq!(r.rank_of(PageId(14)), None);
        assert_eq!(r.iter().count(), 4);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn region_page_out_of_bounds_panics() {
        let r = PageRegion {
            base: 0,
            n_pages: 2,
        };
        let _ = r.page(2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PageId(7).to_string(), "page#7");
        assert_eq!(WorkloadId(1).to_string(), "workload#1");
        assert_eq!(Tier::FMem.to_string(), "FMem");
        assert_eq!(Tier::SMem.to_string(), "SMem");
    }
}
