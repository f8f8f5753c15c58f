//! Continents, following the paper's Appendix A conventions.
//!
//! "The lines separating continents are somewhat arbitrary. For this
//! analysis, we chose to include Mexico with Central America, Turkey and
//! Russia with Europe, all of the Middle East with Africa, and all of
//! Malaysia and New Zealand with Oceania." Australia stands alone, and the
//! Caribbean goes with Central America (Fig. 23 groups it there).

/// One of the paper's eight continent groups (Fig. 22 rows/columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Europe, including Turkey, Russia, and the Caucasus-adjacent
    /// European microstates.
    Europe,
    /// Africa plus the entire Middle East (per Appendix A).
    Africa,
    /// Asia: South, East, Southeast (except Malaysia/Indonesia-side
    /// Oceania assignments), and Central Asia.
    Asia,
    /// Oceania: Pacific islands, Indonesia, Malaysia, the Philippines,
    /// and New Zealand.
    Oceania,
    /// Northern North America: USA, Canada, Greenland, St. Pierre.
    NorthAmerica,
    /// Mexico, Central America proper, and the Caribbean.
    CentralAmerica,
    /// South America.
    SouthAmerica,
    /// Australia (plus its remote dependencies like Norfolk Island are
    /// grouped with Oceania in Fig. 23; mainland Australia stands alone).
    Australia,
}

impl Continent {
    /// All eight continents in the paper's Fig. 22 ordering.
    pub const ALL: [Continent; 8] = [
        Continent::Europe,
        Continent::Africa,
        Continent::Asia,
        Continent::Oceania,
        Continent::NorthAmerica,
        Continent::CentralAmerica,
        Continent::SouthAmerica,
        Continent::Australia,
    ];

    /// Stable index in `[0, 8)` for matrix rows/columns.
    pub fn index(self) -> usize {
        Continent::ALL
            .iter()
            .position(|&c| c == self)
            .expect("continent present in ALL")
    }

    /// Human-readable name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Continent::Europe => "Europe",
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Oceania => "Oceania",
            Continent::NorthAmerica => "North America",
            Continent::CentralAmerica => "Central America",
            Continent::SouthAmerica => "South America",
            Continent::Australia => "Australia",
        }
    }
}

impl std::fmt::Display for Continent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_eight_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in Continent::ALL {
            assert!(seen.insert(c));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn index_round_trips() {
        for (i, c) in Continent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for c in Continent::ALL {
            assert!(names.insert(c.name()));
        }
    }
}
