//! Metadata disambiguation of uncertain predictions (§6, Figs. 15–16).
//!
//! Two techniques let the paper reclassify 353 uncertain claims:
//!
//! * **Data centers** (Fig. 15): a commercial proxy must be *in a data
//!   center*; if the prediction region contains data centers of only one
//!   country, the proxy is there.
//! * **AS + /24 grouping** (Fig. 16): hosts sharing a provider, an AS,
//!   and a 24-bit network prefix "are practically certain to be in the
//!   same physical location", so the group's true country must be
//!   covered by *every* member's prediction region — the intersection of
//!   their touched-country sets.

use crate::assess::Assessment;
use geokit::Region;
use worldmap::{CountryId, DataCenterRegistry};

/// Result of a disambiguation attempt on an uncertain claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disambiguation {
    /// Narrowed to a single country.
    Resolved(CountryId),
    /// Still ambiguous.
    Unresolved,
}

impl Disambiguation {
    /// The country the metadata resolved to, if any.
    pub fn country(self) -> Option<CountryId> {
        match self {
            Disambiguation::Resolved(country) => Some(country),
            Disambiguation::Unresolved => None,
        }
    }

    /// The paper's reclassification rule: an uncertain claim on
    /// `claimed` becomes credible when the metadata resolves to that
    /// country and false when it resolves to another. Every other
    /// assessment, and any assessment when the metadata is unresolved,
    /// passes through.
    pub fn refine(self, assessment: Assessment, claimed: CountryId) -> Assessment {
        match (assessment, self) {
            (Assessment::Uncertain, Disambiguation::Resolved(country)) if country == claimed => {
                Assessment::Credible
            }
            (Assessment::Uncertain, Disambiguation::Resolved(_)) => Assessment::False,
            _ => assessment,
        }
    }
}

/// Try to resolve a prediction region to one country via data centers:
/// succeeds iff exactly one country has a data center inside the region.
pub fn by_data_centers(registry: &DataCenterRegistry, region: &Region) -> Disambiguation {
    let countries = registry.countries_in_region(region);
    match countries.as_slice() {
        [only] => Disambiguation::Resolved(*only),
        _ => Disambiguation::Unresolved,
    }
}

/// Try to resolve a *group* of co-located proxies (same provider + AS +
/// /24) from each member's touched-country set: succeeds iff exactly one
/// country is in every set. The study passes each record's
/// [`ClaimVerdict::touched`](crate::assess::ClaimVerdict::touched)
/// countries, so it need not keep every region in memory.
pub fn by_touched_sets(sets: &[&[CountryId]]) -> Disambiguation {
    let mut common: Option<Vec<CountryId>> = None;
    for set in sets {
        let mut touched: Vec<CountryId> = set.to_vec();
        touched.sort_unstable();
        common = Some(match common {
            None => touched,
            Some(prev) => prev
                .into_iter()
                .filter(|c| touched.binary_search(c).is_ok())
                .collect(),
        });
    }
    match common.as_deref() {
        Some([only]) => Disambiguation::Resolved(*only),
        _ => Disambiguation::Unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assess::assess_claim;
    use geokit::{GeoGrid, GeoPoint, SphericalCap};
    use std::sync::OnceLock;
    use worldmap::WorldAtlas;

    fn setup() -> &'static (WorldAtlas, DataCenterRegistry) {
        static S: OnceLock<(WorldAtlas, DataCenterRegistry)> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = WorldAtlas::new(GeoGrid::new(0.5));
            let reg = DataCenterRegistry::from_atlas(&atlas);
            (atlas, reg)
        })
    }

    fn land_region(atlas: &WorldAtlas, lat: f64, lon: f64, r: f64) -> Region {
        Region::from_cap(atlas.grid(), &SphericalCap::new(GeoPoint::new(lat, lon), r))
            .intersection(atlas.land())
    }

    /// The group rule over the regions' touched-country sets, as the
    /// study feeds it.
    fn by_group(atlas: &WorldAtlas, regions: &[&Region]) -> Disambiguation {
        let sets: Vec<Vec<CountryId>> = regions
            .iter()
            .map(|region| {
                let touched = atlas.countries_touched(region);
                touched.into_iter().map(|(c, _)| c).collect()
            })
            .collect();
        let refs: Vec<&[CountryId]> = sets.iter().map(Vec::as_slice).collect();
        by_touched_sets(&refs)
    }

    #[test]
    fn refine_reclassifies_only_uncertain_resolved_claims() {
        use Assessment::{Credible, False, Suspicious, Uncertain};
        let (claimed, other) = (3, 7);
        let cases = [
            (Credible, [Credible, Credible, Credible]),
            (Uncertain, [Credible, False, Uncertain]),
            (False, [False, False, False]),
            (Suspicious, [Suspicious, Suspicious, Suspicious]),
        ];
        for (assessment, expected) in cases {
            let got = [
                Disambiguation::Resolved(claimed),
                Disambiguation::Resolved(other),
                Disambiguation::Unresolved,
            ]
            .map(|d| d.refine(assessment, claimed));
            assert_eq!(got, expected, "{assessment:?}");
        }
    }

    #[test]
    fn chile_argentina_case_resolves_to_chile() {
        let (atlas, reg) = setup();
        // Fig. 15: region straddles the Andes; only Chile has DCs there.
        let region = land_region(atlas, -33.5, -69.5, 450.0);
        let cl = atlas.country_by_iso2("cl").unwrap();
        assert_eq!(by_data_centers(reg, &region), Disambiguation::Resolved(cl));
    }

    #[test]
    fn multi_dc_region_stays_unresolved() {
        let (atlas, reg) = setup();
        // Benelux + western Germany: data centers in several countries.
        let region = land_region(atlas, 50.8, 5.5, 400.0);
        assert_eq!(by_data_centers(reg, &region), Disambiguation::Unresolved);
    }

    #[test]
    fn no_dc_region_stays_unresolved() {
        let (atlas, reg) = setup();
        // Deep Sahara.
        let region = land_region(atlas, 22.0, 5.0, 300.0);
        assert_eq!(by_data_centers(reg, &region), Disambiguation::Unresolved);
    }

    #[test]
    fn colocation_group_narrows_to_common_country() {
        let (atlas, _) = setup();
        // Fig. 16: every region covers part of Canada; only some also
        // cross into the USA.
        let toronto = land_region(atlas, 44.5, -79.0, 260.0); // Canada + a US sliver
        let ottawa = land_region(atlas, 46.8, -76.0, 220.0); // Canada only
        let ca = atlas.country_by_iso2("ca").unwrap();
        assert_eq!(
            by_group(atlas, &[&toronto, &ottawa]),
            Disambiguation::Resolved(ca)
        );
    }

    #[test]
    fn colocation_group_can_stay_ambiguous() {
        let (atlas, _) = setup();
        let a = land_region(atlas, 45.0, -75.0, 600.0);
        let b = land_region(atlas, 44.0, -77.0, 600.0);
        assert_eq!(by_group(atlas, &[&a, &b]), Disambiguation::Unresolved);
    }

    #[test]
    fn refine_uncertain_to_false_when_dc_country_differs() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0); // resolves to Chile
        let ar = atlas.country_by_iso2("ar").unwrap();
        let verdict = assess_claim(atlas, &region, ar);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = by_data_centers(reg, &region).refine(verdict.assessment, ar);
        assert_eq!(refined, Assessment::False);
    }

    #[test]
    fn refine_uncertain_to_credible_when_dc_country_matches() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0);
        let cl = atlas.country_by_iso2("cl").unwrap();
        let verdict = assess_claim(atlas, &region, cl);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = by_data_centers(reg, &region).refine(verdict.assessment, cl);
        assert_eq!(refined, Assessment::Credible);
    }

    #[test]
    fn credible_verdicts_pass_through() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, 50.1, 8.7, 80.0);
        let de = atlas.country_by_iso2("de").unwrap();
        let verdict = assess_claim(atlas, &region, de);
        assert_eq!(verdict.assessment, Assessment::Credible);
        let refined = by_data_centers(reg, &region).refine(verdict.assessment, de);
        assert_eq!(refined, Assessment::Credible);
    }
}
