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

use crate::assess::{assess_claim, Assessment, ClaimVerdict};
use geokit::Region;
use worldmap::{CountryId, DataCenterRegistry, WorldAtlas};

/// Result of a disambiguation attempt on an uncertain claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disambiguation {
    /// Narrowed to a single country.
    Resolved(CountryId),
    /// Still ambiguous.
    Unresolved,
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
/// /24) via the intersection of their touched-country sets: succeeds iff
/// exactly one country is covered by every member's region.
pub fn by_colocation_group(atlas: &WorldAtlas, regions: &[&Region]) -> Disambiguation {
    let sets: Vec<Vec<CountryId>> = regions
        .iter()
        .map(|region| {
            atlas
                .countries_touched(region)
                .into_iter()
                .map(|(c, _)| c)
                .collect()
        })
        .collect();
    let refs: Vec<&[CountryId]> = sets.iter().map(Vec::as_slice).collect();
    by_touched_sets(&refs)
}

/// Same resolution rule over precomputed touched-country sets — the form
/// the bulk study uses so it need not keep every region in memory.
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

/// Apply data-center disambiguation to an uncertain verdict: when the
/// region resolves to a single data-center country, the claim becomes
/// credible (if it names that country) or false (otherwise). Verdicts
/// that are already credible/false pass through untouched.
pub fn refine_verdict(
    atlas: &WorldAtlas,
    registry: &DataCenterRegistry,
    region: &Region,
    claimed: CountryId,
    verdict: ClaimVerdict,
) -> ClaimVerdict {
    if verdict.assessment != Assessment::Uncertain {
        return verdict;
    }
    match by_data_centers(registry, region) {
        Disambiguation::Resolved(country) => {
            let mut refined = assess_claim(atlas, region, claimed);
            refined.assessment = if country == claimed {
                Assessment::Credible
            } else {
                Assessment::False
            };
            refined
        }
        Disambiguation::Unresolved => verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::{GeoGrid, GeoPoint, SphericalCap};
    use std::sync::OnceLock;

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
        let regions: Vec<&Region> = vec![&toronto, &ottawa];
        assert_eq!(
            by_colocation_group(atlas, &regions),
            Disambiguation::Resolved(ca)
        );
    }

    #[test]
    fn colocation_group_can_stay_ambiguous() {
        let (atlas, _) = setup();
        let a = land_region(atlas, 45.0, -75.0, 600.0);
        let b = land_region(atlas, 44.0, -77.0, 600.0);
        let regions: Vec<&Region> = vec![&a, &b];
        assert_eq!(
            by_colocation_group(atlas, &regions),
            Disambiguation::Unresolved
        );
    }

    #[test]
    fn refine_uncertain_to_false_when_dc_country_differs() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0); // resolves to Chile
        let ar = atlas.country_by_iso2("ar").unwrap();
        let verdict = assess_claim(atlas, &region, ar);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = refine_verdict(atlas, reg, &region, ar, verdict);
        assert_eq!(refined.assessment, Assessment::False);
    }

    #[test]
    fn refine_uncertain_to_credible_when_dc_country_matches() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0);
        let cl = atlas.country_by_iso2("cl").unwrap();
        let verdict = assess_claim(atlas, &region, cl);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = refine_verdict(atlas, reg, &region, cl, verdict);
        assert_eq!(refined.assessment, Assessment::Credible);
    }

    #[test]
    fn credible_verdicts_pass_through() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, 50.1, 8.7, 80.0);
        let de = atlas.country_by_iso2("de").unwrap();
        let verdict = assess_claim(atlas, &region, de);
        assert_eq!(verdict.assessment, Assessment::Credible);
        let refined = refine_verdict(atlas, reg, &region, de, verdict);
        assert_eq!(refined.assessment, Assessment::Credible);
    }
}
