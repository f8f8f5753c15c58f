//! Claim assessment (§6): is the provider's country claim *credible*,
//! *uncertain*, or *false*?
//!
//! "We say that the provider's claim for a proxy is **false** if the
//! predicted region does not cover any part of the claimed country …
//! **credible** if the predicted region is entirely within the claimed
//! country … **uncertain** if the predicted region covers both the
//! claimed country and others." For false and uncertain claims the paper
//! also records whether the prediction stays on the claimed continent.

use geokit::Region;
use worldmap::{Continent, CountryId, WorldAtlas};

/// Country-level verdict on one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assessment {
    /// Prediction region entirely within the claimed country.
    Credible,
    /// Prediction region covers the claimed country and others.
    Uncertain,
    /// Prediction region misses the claimed country entirely.
    False,
    /// The measurements themselves look *adversarially shaped*: the
    /// geometric verdict (whatever it was) is withheld because the
    /// defense layer found named evidence of tampering — pairwise
    /// speed-of-light conflicts between landmarks, a failed disjoint-
    /// subset quorum, physically impossible corrected RTTs, or an
    /// implausible excess of dead landmarks. Never produced by the
    /// baseline pipeline; only [`run_defense`](crate::defense) degrades
    /// a verdict to this.
    Suspicious,
}

impl Assessment {
    /// Stable, lowercase wire name — the on-disk representation used by
    /// the verdict store (`vpnstudy::store`).
    pub fn as_str(self) -> &'static str {
        match self {
            Assessment::Credible => "credible",
            Assessment::Uncertain => "uncertain",
            Assessment::False => "false",
            Assessment::Suspicious => "suspicious",
        }
    }

    /// Inverse of [`as_str`](Assessment::as_str).
    pub fn parse(s: &str) -> Option<Assessment> {
        match s {
            "credible" => Some(Assessment::Credible),
            "uncertain" => Some(Assessment::Uncertain),
            "false" => Some(Assessment::False),
            "suspicious" => Some(Assessment::Suspicious),
            _ => None,
        }
    }
}

/// Continent-level refinement recorded alongside the assessment
/// (Fig. 17's row categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinentVerdict {
    /// The prediction stays on the claimed continent.
    Credible,
    /// The prediction touches the claimed continent and others.
    Uncertain,
    /// The prediction misses the claimed continent entirely.
    False,
}

impl ContinentVerdict {
    /// Stable, lowercase wire name (see [`Assessment::as_str`]).
    pub fn as_str(self) -> &'static str {
        match self {
            ContinentVerdict::Credible => "credible",
            ContinentVerdict::Uncertain => "uncertain",
            ContinentVerdict::False => "false",
        }
    }

    /// Inverse of [`as_str`](ContinentVerdict::as_str).
    pub fn parse(s: &str) -> Option<ContinentVerdict> {
        match s {
            "credible" => Some(ContinentVerdict::Credible),
            "uncertain" => Some(ContinentVerdict::Uncertain),
            "false" => Some(ContinentVerdict::False),
            _ => None,
        }
    }
}

/// Full verdict for one proxy claim.
#[derive(Debug, Clone)]
pub struct ClaimVerdict {
    /// Country-level result.
    pub assessment: Assessment,
    /// Continent-level result.
    pub continent: ContinentVerdict,
    /// Countries the prediction touches, largest covered area first.
    pub touched: Vec<(CountryId, f64)>,
}

/// Assess a prediction region against a claimed country.
///
/// An *empty* prediction region is treated as `False` at both levels —
/// the algorithm affirmatively failed to place the target anywhere, so
/// it cannot support the claim. (CBG++ by construction never returns an
/// empty region, §5.1.)
pub fn assess_claim(atlas: &WorldAtlas, prediction: &Region, claimed: CountryId) -> ClaimVerdict {
    let touched = atlas.countries_touched(prediction);
    let claimed_continent = atlas.country(claimed).continent();

    let covers_claimed = touched.iter().any(|&(c, _)| c == claimed);
    let covers_other = touched.iter().any(|&(c, _)| c != claimed);
    let assessment = match (covers_claimed, covers_other) {
        (true, false) => Assessment::Credible,
        (true, true) => Assessment::Uncertain,
        (false, _) => Assessment::False,
    };

    let continents: Vec<Continent> = {
        let mut v: Vec<Continent> = touched
            .iter()
            .map(|&(c, _)| atlas.country(c).continent())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let on_continent = continents.contains(&claimed_continent);
    let other_continent = continents.iter().any(|&c| c != claimed_continent);
    let continent = match (on_continent, other_continent) {
        (true, false) => ContinentVerdict::Credible,
        (true, true) => ContinentVerdict::Uncertain,
        (false, _) => ContinentVerdict::False,
    };

    ClaimVerdict {
        assessment,
        continent,
        touched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::{GeoGrid, GeoPoint, SphericalCap};
    use std::sync::OnceLock;
    use worldmap::WorldAtlas;

    fn atlas() -> &'static WorldAtlas {
        static A: OnceLock<WorldAtlas> = OnceLock::new();
        A.get_or_init(|| WorldAtlas::new(GeoGrid::new(0.5)))
    }

    fn region_around(lat: f64, lon: f64, r: f64) -> Region {
        let a = atlas();
        Region::from_cap(a.grid(), &SphericalCap::new(GeoPoint::new(lat, lon), r))
            .intersection(a.land())
    }

    #[test]
    fn tight_region_in_claimed_country_is_credible() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        // A small disk around Frankfurt, inside Germany.
        let region = region_around(50.1, 8.7, 80.0);
        let v = assess_claim(a, &region, de);
        assert_eq!(v.assessment, Assessment::Credible);
        assert_eq!(v.continent, ContinentVerdict::Credible);
    }

    #[test]
    fn benelux_region_for_german_claim_is_uncertain() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        // Covers western Germany and the Low Countries.
        let region = region_around(50.8, 6.0, 300.0);
        let v = assess_claim(a, &region, de);
        assert_eq!(v.assessment, Assessment::Uncertain);
        assert_eq!(v.continent, ContinentVerdict::Credible);
    }

    #[test]
    fn european_region_for_north_korea_claim_is_false() {
        let a = atlas();
        let kp = a.country_by_iso2("kp").unwrap();
        let region = region_around(50.8, 6.0, 400.0);
        let v = assess_claim(a, &region, kp);
        assert_eq!(v.assessment, Assessment::False);
        assert_eq!(v.continent, ContinentVerdict::False);
    }

    #[test]
    fn same_continent_false_claim() {
        let a = atlas();
        // Region in Germany; claim = Spain: false country, credible
        // continent (Europe).
        let es = a.country_by_iso2("es").unwrap();
        let region = region_around(50.1, 8.7, 150.0);
        let v = assess_claim(a, &region, es);
        assert_eq!(v.assessment, Assessment::False);
        assert_eq!(v.continent, ContinentVerdict::Credible);
    }

    #[test]
    fn us_canada_region_rules_out_the_rest_of_the_world() {
        let a = atlas();
        // The paper's example: a prediction covering Canada and the USA
        // is uncertain between them but false for anywhere else.
        let region = region_around(45.0, -75.0, 600.0);
        let ca = a.country_by_iso2("ca").unwrap();
        let kp = a.country_by_iso2("kp").unwrap();
        assert_eq!(
            assess_claim(a, &region, ca).assessment,
            Assessment::Uncertain
        );
        assert_eq!(assess_claim(a, &region, kp).assessment, Assessment::False);
    }

    #[test]
    fn empty_region_is_false() {
        let a = atlas();
        let de = a.country_by_iso2("de").unwrap();
        let empty = Region::empty(std::sync::Arc::clone(a.grid()));
        let v = assess_claim(a, &empty, de);
        assert_eq!(v.assessment, Assessment::False);
        assert_eq!(v.continent, ContinentVerdict::False);
        assert!(v.touched.is_empty());
    }

    #[test]
    fn verdict_wire_names_round_trip() {
        for a in [
            Assessment::Credible,
            Assessment::Uncertain,
            Assessment::False,
            Assessment::Suspicious,
        ] {
            assert_eq!(Assessment::parse(a.as_str()), Some(a));
        }
        for c in [
            ContinentVerdict::Credible,
            ContinentVerdict::Uncertain,
            ContinentVerdict::False,
        ] {
            assert_eq!(ContinentVerdict::parse(c.as_str()), Some(c));
        }
        assert_eq!(Assessment::parse("bogus"), None);
        assert_eq!(ContinentVerdict::parse("suspicious"), None);
    }

    #[test]
    fn touched_is_sorted_by_area() {
        let a = atlas();
        let region = region_around(50.8, 6.0, 500.0);
        let de = a.country_by_iso2("de").unwrap();
        let v = assess_claim(a, &region, de);
        assert!(v.touched.len() >= 3);
        for w in v.touched.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
