//! Algorithm identities — the eight studied algorithms of Table 2 plus the
//! handshake-join strawman of §6.

use std::fmt;

/// One of the studied IaWJ algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// No-Partitioning hash Join (lazy, hash, shared table).
    Npj,
    /// Parallel Radix Join (lazy, hash, cache-aware replication).
    Prj,
    /// Multi-Way Sort-Merge Join (lazy, sort, range partitioning).
    MWay,
    /// Multi-Pass Sort-Merge Join (lazy, sort, range partitioning).
    MPass,
    /// Symmetric Hash Join under the Join-Matrix scheme (eager, hash).
    ShjJm,
    /// Symmetric Hash Join under the Join-Biclique scheme (eager, hash).
    ShjJb,
    /// Progressive Merge Join under the Join-Matrix scheme (eager, sort).
    PmjJm,
    /// Progressive Merge Join under the Join-Biclique scheme (eager, sort).
    PmjJb,
    /// Handshake join (§6 validation strawman; not part of the eight).
    Handshake,
    /// Index-Based Window Join — maintains an evictable hash index over
    /// resident window content and probes it per arrival (engines 9+;
    /// the family the paper deliberately excludes).
    Ibwj,
    /// PanJoin-style partitioned adaptive IBWJ: per-partition sub-indexes
    /// with histogram-triggered repartitioning under skew.
    IbwjPart,
}

impl Algorithm {
    /// The eight studied algorithms, in the paper's presentation order.
    pub const STUDIED: [Algorithm; 8] = [
        Algorithm::Npj,
        Algorithm::Prj,
        Algorithm::MWay,
        Algorithm::MPass,
        Algorithm::ShjJm,
        Algorithm::ShjJb,
        Algorithm::PmjJm,
        Algorithm::PmjJb,
    ];

    /// The lazy (relational) algorithms.
    pub const LAZY: [Algorithm; 4] = [
        Algorithm::Npj,
        Algorithm::Prj,
        Algorithm::MWay,
        Algorithm::MPass,
    ];

    /// The eager (stream) algorithms.
    pub const EAGER: [Algorithm; 4] = [
        Algorithm::ShjJm,
        Algorithm::ShjJb,
        Algorithm::PmjJm,
        Algorithm::PmjJb,
    ];

    /// The index-accelerated engines (extensions, not part of the eight).
    pub const INDEX: [Algorithm; 2] = [Algorithm::Ibwj, Algorithm::IbwjPart];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Npj => "NPJ",
            Algorithm::Prj => "PRJ",
            Algorithm::MWay => "MWAY",
            Algorithm::MPass => "MPASS",
            Algorithm::ShjJm => "SHJ_JM",
            Algorithm::ShjJb => "SHJ_JB",
            Algorithm::PmjJm => "PMJ_JM",
            Algorithm::PmjJb => "PMJ_JB",
            Algorithm::Handshake => "HANDSHAKE",
            Algorithm::Ibwj => "IBWJ",
            Algorithm::IbwjPart => "IBWJ_PART",
        }
    }

    /// Index-accelerated engine (maintains a resident window index)?
    pub fn is_index_based(self) -> bool {
        matches!(self, Algorithm::Ibwj | Algorithm::IbwjPart)
    }

    /// Lazy execution approach?
    pub fn is_lazy(self) -> bool {
        matches!(
            self,
            Algorithm::Npj | Algorithm::Prj | Algorithm::MWay | Algorithm::MPass
        )
    }

    /// Eager execution approach (includes the handshake strawman)?
    pub fn is_eager(self) -> bool {
        !self.is_lazy()
    }

    /// Sort-based join method?
    pub fn is_sort_based(self) -> bool {
        matches!(
            self,
            Algorithm::MWay | Algorithm::MPass | Algorithm::PmjJm | Algorithm::PmjJb
        )
    }

    /// Requires a power-of-two thread count (the §5 constraint on
    /// MWay/MPass)?
    pub fn needs_pow2_threads(self) -> bool {
        matches!(self, Algorithm::MWay | Algorithm::MPass)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_table2() {
        assert_eq!(Algorithm::STUDIED.len(), 8);
        for a in Algorithm::LAZY {
            assert!(a.is_lazy());
            assert!(!a.is_eager());
        }
        for a in Algorithm::EAGER {
            assert!(a.is_eager());
        }
        assert!(Algorithm::Handshake.is_eager());
    }

    #[test]
    fn sort_based_split() {
        assert!(!Algorithm::Npj.is_sort_based());
        assert!(!Algorithm::Prj.is_sort_based());
        assert!(Algorithm::MWay.is_sort_based());
        assert!(Algorithm::PmjJb.is_sort_based());
        assert!(!Algorithm::ShjJm.is_sort_based());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::STUDIED.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(Algorithm::ShjJm.to_string(), "SHJ_JM");
    }

    #[test]
    fn extensions_classified_as_eager() {
        assert!(Algorithm::Handshake.is_eager());
        assert!(!Algorithm::Handshake.is_sort_based());
        assert!(!Algorithm::STUDIED.contains(&Algorithm::Handshake));
    }

    #[test]
    fn index_engines_classified() {
        for a in Algorithm::INDEX {
            assert!(a.is_index_based());
            assert!(a.is_eager(), "{a} processes per arrival");
            assert!(!a.is_sort_based());
            assert!(!a.needs_pow2_threads());
            assert!(!Algorithm::STUDIED.contains(&a));
        }
        assert!(!Algorithm::ShjJm.is_index_based());
        assert_eq!(Algorithm::Ibwj.to_string(), "IBWJ");
        assert_eq!(Algorithm::IbwjPart.to_string(), "IBWJ_PART");
    }

    #[test]
    fn pow2_constraint() {
        assert!(Algorithm::MWay.needs_pow2_threads());
        assert!(Algorithm::MPass.needs_pow2_threads());
        assert!(!Algorithm::Npj.needs_pow2_threads());
    }
}
