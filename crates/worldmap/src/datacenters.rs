//! Data-center registry — the substitute for the University of Wisconsin
//! Internet Atlas list the paper uses to disambiguate uncertain prediction
//! regions (§6, Fig. 15: "the only data centers within the region are in
//! Chile, so we can conclude that this server is in Chile").
//!
//! Data centers exist at the hub cities of countries whose hosting score
//! clears a threshold: commercial colocation follows exactly the
//! cheap-and-reliable-hosting geography the paper describes, so deriving
//! the registry from hosting scores keeps the two substrates consistent.

use crate::atlas::WorldAtlas;
use crate::country::CountryId;
use geokit::{GeoPoint, Region};

/// One data center (a colocation site at a hub city).
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// Host city name.
    pub city: &'static str,
    /// Country owning the data center.
    pub country: CountryId,
    /// Site location.
    pub location: GeoPoint,
}

/// The registry of all known data centers.
#[derive(Debug, Clone)]
pub struct DataCenterRegistry {
    centers: Vec<DataCenter>,
}

/// Minimum hosting score for a country's hubs to have colocation sites.
pub const HOSTING_THRESHOLD: f64 = 0.25;

impl DataCenterRegistry {
    /// Build the registry from the atlas: one data center per hub city of
    /// every country with hosting ≥ [`HOSTING_THRESHOLD`], plus satellite
    /// colocation sites spread across the country in proportion to its
    /// hosting score. The real UW Internet Atlas lists thousands of
    /// facilities; density matters because the Fig. 15 disambiguation
    /// ("only one country has data centers inside the region") is only
    /// sound when well-hosted countries are thickly covered.
    pub fn from_atlas(atlas: &WorldAtlas) -> DataCenterRegistry {
        use simrng::rngs::StdRng;
        use simrng::{RngExt, SeedableRng};
        // Fixed internal seed: the registry is a world fact, not a
        // per-study random variable.
        let mut rng = StdRng::seed_from_u64(0xdc_5172);
        let mut centers = Vec::new();
        for (id, country) in atlas.countries().iter().enumerate() {
            if country.hosting() < HOSTING_THRESHOLD {
                continue;
            }
            for hub in country.hubs() {
                centers.push(DataCenter {
                    city: hub.name,
                    country: id,
                    location: GeoPoint::new(hub.lat, hub.lon),
                });
                // Satellite sites around each hub, kept inside the
                // country's painted cells.
                let satellites = (country.hosting() * 5.0).round() as usize;
                for _ in 0..satellites {
                    let hub_point = GeoPoint::new(hub.lat, hub.lon);
                    for _ in 0..16 {
                        let bearing = rng.random_range(0.0..360.0);
                        let dist = rng.random_range(30.0..280.0);
                        let p = hub_point.destination(bearing, dist);
                        if atlas.country_of_point(&p) == Some(id) {
                            centers.push(DataCenter {
                                city: hub.name,
                                country: id,
                                location: p,
                            });
                            break;
                        }
                    }
                }
            }
        }
        DataCenterRegistry { centers }
    }

    /// Data centers whose location falls inside a region.
    pub fn in_region<'a>(&'a self, region: &'a Region) -> impl Iterator<Item = &'a DataCenter> {
        self.centers
            .iter()
            .filter(move |dc| region.contains_point(&dc.location))
    }

    /// The set of distinct countries having a data center inside the
    /// region. This is the paper's Fig. 15 disambiguation primitive: if a
    /// prediction region covers several countries but only one has data
    /// centers in the covered part, the proxy is (almost certainly) there.
    pub fn countries_in_region(&self, region: &Region) -> Vec<CountryId> {
        let mut out: Vec<CountryId> = self.in_region(region).map(|dc| dc.country).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::{GeoGrid, SphericalCap};
    use std::sync::OnceLock;

    fn setup() -> &'static (WorldAtlas, DataCenterRegistry) {
        static S: OnceLock<(WorldAtlas, DataCenterRegistry)> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = WorldAtlas::new(GeoGrid::new(0.5));
            let reg = DataCenterRegistry::from_atlas(&atlas);
            (atlas, reg)
        })
    }

    #[test]
    fn hosting_friendly_countries_have_dcs() {
        let (atlas, reg) = setup();
        for iso in ["us", "de", "nl", "gb", "sg", "jp"] {
            let id = atlas.country_by_iso2(iso).unwrap();
            assert!(
                reg.centers.iter().any(|dc| dc.country == id),
                "{iso} should have data centers"
            );
        }
    }

    #[test]
    fn hostile_countries_have_none() {
        let (atlas, reg) = setup();
        for iso in ["kp", "pn", "va", "eh"] {
            let id = atlas.country_by_iso2(iso).unwrap();
            assert!(
                !reg.centers.iter().any(|dc| dc.country == id),
                "{iso} should have no data centers"
            );
        }
    }

    #[test]
    fn chile_argentina_disambiguation_case() {
        // The paper's Fig. 15 case: a region straddling the Chile/Argentina
        // border near Santiago contains only Chilean data centers (no
        // Argentine hub is within ~600 km of Santiago).
        let (atlas, reg) = setup();
        let region = Region::from_cap(
            atlas.grid(),
            &SphericalCap::new(GeoPoint::new(-33.5, -69.5), 450.0),
        )
        .intersection(atlas.land());
        let touched: Vec<&str> = atlas
            .countries_touched(&region)
            .iter()
            .map(|&(c, _)| atlas.country(c).iso2())
            .collect();
        assert!(
            touched.contains(&"cl") && touched.contains(&"ar"),
            "{touched:?}"
        );
        let dc_countries: Vec<&str> = reg
            .countries_in_region(&region)
            .iter()
            .map(|&c| atlas.country(c).iso2())
            .collect();
        assert_eq!(dc_countries, vec!["cl"], "only Chile has DCs here");
    }

    #[test]
    fn dc_locations_are_in_their_country() {
        let (atlas, reg) = setup();
        let bad: Vec<String> = reg
            .centers
            .iter()
            .filter(|dc| atlas.country_of_point(&dc.location) != Some(dc.country))
            .map(|dc| {
                format!(
                    "{} ({}) painted as {:?}",
                    dc.city,
                    atlas.country(dc.country).iso2(),
                    atlas
                        .country_of_point(&dc.location)
                        .map(|id| atlas.country(id).iso2())
                )
            })
            .collect();
        assert!(bad.is_empty(), "misplaced data centers: {bad:#?}");
    }
}
