//! The static world data tables: ~200 countries and territories.
//!
//! This is our substitute for the 2012 Natural Earth map the paper uses.
//! Each entry gives a coarse outline (union of spherical caps and lat/lon
//! boxes around the true geography), the paper's Appendix A continent
//! assignment, a hosting-ease score, and hub cities where infrastructure
//! concentrates.
//!
//! Outline fidelity is deliberately coarse: the study evaluates
//! *country-level* claims on a ≤ 0.5° grid, so a box that covers the
//! country's core and respects its neighbours is all that is needed.
//! Where two outlines overlap (enclaves like Vatican/Italy, Hong
//! Kong/China, and coarse shared borders), the painted cell map in
//! [`crate::WorldAtlas`] resolves ownership in favour of the smaller
//! territory.
//!
//! The country list mirrors the paper's Fig. 23 confusion-matrix axis,
//! including oddities that matter to the study: Pitcairn (claimed by a
//! provider!), Vatican, North Korea, Siachen Glacier, Northern Cyprus,
//! Somaliland, and the long tail of small island territories.

/// Compact constructor for one table entry. Usage:
///
/// ```ignore
/// country!("de", "Germany", Europe, 1.0,
///     shapes: [rect(47.5, 54.5, 6.5, 14.5)],
///     hubs: [("Frankfurt", 50.11, 8.68, 1.0), ("Berlin", 52.52, 13.40, 0.5)])
/// ```
macro_rules! country {
    ($iso:literal, $name:literal, $cont:ident, $host:literal,
     shapes: [$($shape:expr),+ $(,)?],
     hubs: [$(($hname:literal, $hlat:expr, $hlon:expr, $hw:expr)),+ $(,)?]) => {
        crate::country::CountryDef {
            iso2: $iso,
            name: $name,
            continent: crate::continent::Continent::$cont,
            hosting: $host,
            shapes: &[$($shape),+],
            hubs: &[$(crate::country::HubDef {
                name: $hname, lat: $hlat, lon: $hlon, weight: $hw,
            }),+],
        }
    };
}
mod africa;
mod americas;
mod asia;
mod europe;
mod oceania;

use crate::country::CountryDef;
use std::sync::OnceLock;

/// All country definitions (see [`all_countries`]), in a stable order:
/// Europe, Africa (incl. Middle East), Asia, Oceania, Americas.
///
/// The index of a country in this slice is its [`crate::CountryId`]
/// everywhere in the project.
pub fn all_countries() -> &'static [&'static CountryDef] {
    static ALL: OnceLock<Vec<&'static CountryDef>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut v: Vec<&'static CountryDef> = Vec::new();
        v.extend(europe::COUNTRIES.iter());
        v.extend(africa::COUNTRIES.iter());
        v.extend(asia::COUNTRIES.iter());
        v.extend(oceania::COUNTRIES.iter());
        v.extend(americas::COUNTRIES.iter());
        // Sanity: ISO codes must be unique, or country lookup by code
        // would silently alias two territories.
        let mut codes: Vec<&str> = v.iter().map(|c| c.iso2).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(before, codes.len(), "duplicate ISO code in country tables");
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continent::Continent;

    #[test]
    fn roughly_two_hundred_countries() {
        let n = all_countries().len();
        assert!((190..=230).contains(&n), "expected ~200 countries, got {n}");
    }

    #[test]
    fn every_continent_is_represented() {
        for cont in Continent::ALL {
            assert!(
                all_countries().iter().any(|c| c.continent == cont),
                "no countries in {cont}"
            );
        }
    }

    #[test]
    fn all_entries_have_hubs_and_shapes() {
        for c in all_countries() {
            assert!(!c.hubs.is_empty(), "{} has no hubs", c.iso2);
            assert!(!c.shapes.is_empty(), "{} has no shapes", c.iso2);
            assert!(
                (0.0..=1.0).contains(&c.hosting),
                "{} hosting score out of range",
                c.iso2
            );
        }
    }

    #[test]
    fn hubs_are_inside_their_country() {
        use crate::country::Country;
        for def in all_countries() {
            let c = Country::from_def(def);
            for h in def.hubs {
                let p = geokit::GeoPoint::new(h.lat, h.lon);
                assert!(
                    c.distance_from_km(&p) < 150.0,
                    "{}: hub {} is {:.0} km outside its outline",
                    def.iso2,
                    h.name,
                    c.distance_from_km(&p)
                );
            }
        }
    }

    #[test]
    fn key_countries_present() {
        let codes: Vec<&str> = all_countries().iter().map(|c| c.iso2).collect();
        for key in [
            "us", "gb", "de", "nl", "cz", "fr", "ca", "au", "jp", "sg", "hk", "br", "ru", "cn",
            "kp", "va", "pn", "za", "in", "se", "ch", "es", "it",
        ] {
            assert!(codes.contains(&key), "missing {key}");
        }
    }

    #[test]
    fn paper_continent_conventions() {
        let find = |code: &str| {
            all_countries()
                .iter()
                .find(|c| c.iso2 == code)
                .unwrap_or_else(|| panic!("missing {code}"))
        };
        // Appendix A: Turkey and Russia with Europe.
        assert_eq!(find("tr").continent, Continent::Europe);
        assert_eq!(find("ru").continent, Continent::Europe);
        // Middle East with Africa.
        assert_eq!(find("sa").continent, Continent::Africa);
        assert_eq!(find("il").continent, Continent::Africa);
        assert_eq!(find("ae").continent, Continent::Africa);
        // Mexico with Central America.
        assert_eq!(find("mx").continent, Continent::CentralAmerica);
        // Malaysia and New Zealand with Oceania.
        assert_eq!(find("my").continent, Continent::Oceania);
        assert_eq!(find("nz").continent, Continent::Oceania);
        // Australia alone.
        assert_eq!(find("au").continent, Continent::Australia);
    }
}
