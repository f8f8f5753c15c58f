//! The synthetic VPN-market claim survey behind Fig. 14.
//!
//! The paper plots, for 157 commercial VPN providers (data from VPN.com),
//! which countries each claims to have proxies in, ordered so that
//! providers claiming only a few locations "tend to claim more or less the
//! same locations" — the countries where leasing data-center space is easy.
//! We reproduce that structure generatively:
//!
//! * countries get a *claim popularity* driven by hosting ease (with a
//!   small bonus for large, well-connected markets), so the same ten
//!   countries top every modest provider's list;
//! * provider claim counts follow a heavy-tailed decreasing curve: the
//!   broadest claimer advertises nearly every country on Earth
//!   ("all but seven of the world's sovereign states", §1), the median
//!   provider a dozen;
//! * each provider claims a prefix of the popularity order plus a few
//!   idiosyncratic swaps.

use crate::atlas::WorldAtlas;
use crate::country::CountryId;
use simrng::rngs::StdRng;
use simrng::{Rng, RngExt, SeedableRng};

/// One provider row of the market survey.
#[derive(Debug, Clone)]
pub struct MarketProvider {
    /// Rank by number of claimed countries (0 = broadest claimer).
    pub rank: usize,
    /// Countries this provider claims, most popular first.
    pub claimed: Vec<CountryId>,
}

/// The full market survey (Fig. 14's data).
#[derive(Debug, Clone)]
pub struct MarketSurvey {
    providers: Vec<MarketProvider>,
    popularity: Vec<CountryId>,
}

/// Number of providers in the paper's survey.
pub const SURVEY_SIZE: usize = 157;

impl MarketSurvey {
    /// Generate the survey deterministically from a seed.
    pub fn generate(atlas: &WorldAtlas, seed: u64) -> MarketSurvey {
        let mut rng = StdRng::seed_from_u64(seed);
        let popularity = claim_popularity_order(atlas);
        let n_countries = popularity.len();

        let mut providers = Vec::with_capacity(SURVEY_SIZE);
        for rank in 0..SURVEY_SIZE {
            let count = claim_count_for_rank(rank, n_countries, &mut rng);
            // Claim the `count` most popular countries, then perturb: swap
            // a handful of mid-list entries for long-tail ones so provider
            // fingerprints differ.
            let mut claimed: Vec<CountryId> = popularity[..count].to_vec();
            let swaps = (count / 10).min(n_countries - count);
            for s in 0..swaps {
                let victim = rng.random_range(count / 2..count);
                let replacement =
                    count + ((s * 31 + rng.random_range(0..7usize)) % (n_countries - count));
                claimed[victim] = popularity[replacement];
            }
            claimed.sort_unstable();
            claimed.dedup();
            providers.push(MarketProvider { rank, claimed });
        }
        MarketSurvey {
            providers,
            popularity,
        }
    }

    /// Provider rows, rank order (broadest first).
    pub fn providers(&self) -> &[MarketProvider] {
        &self.providers
    }

    /// Countries in descending claim popularity.
    pub fn popularity_order(&self) -> &[CountryId] {
        &self.popularity
    }

    /// How many of the surveyed providers claim the given country.
    pub fn claim_frequency(&self, country: CountryId) -> usize {
        self.providers
            .iter()
            .filter(|p| p.claimed.binary_search(&country).is_ok())
            .count()
    }
}

/// Countries ordered by how commonly VPN providers claim them: hosting
/// ease dominates, with a market-size bonus for a fixed set of
/// high-demand locations (the countries the paper's Fig. 18 columns show:
/// US, UK, NL, DE, CA, FR, SE, SG, CH, HK, ES, JP, IT, RU, RO, BR, IN,
/// PL, IE, AU, …).
pub fn claim_popularity_order(atlas: &WorldAtlas) -> Vec<CountryId> {
    const DEMAND_BONUS: &[(&str, f64)] = &[
        ("us", 0.60),
        ("gb", 0.50),
        ("nl", 0.42),
        ("de", 0.40),
        ("ca", 0.38),
        ("fr", 0.34),
        ("au", 0.34),
        ("se", 0.30),
        ("sg", 0.30),
        ("ch", 0.26),
        ("hk", 0.26),
        ("jp", 0.24),
        ("es", 0.22),
        ("it", 0.22),
        ("ru", 0.30),
        ("ro", 0.26),
        ("br", 0.22),
        ("in", 0.24),
        ("pl", 0.18),
        ("ie", 0.16),
        ("cz", 0.14),
        ("no", 0.12),
        ("dk", 0.12),
        ("fi", 0.10),
        ("at", 0.10),
        ("be", 0.10),
        ("mx", 0.10),
        ("za", 0.10),
        ("kr", 0.10),
        ("tr", 0.10),
    ];
    let mut scored: Vec<(CountryId, f64)> = atlas
        .countries()
        .iter()
        .enumerate()
        .map(|(id, c)| {
            let bonus = DEMAND_BONUS
                .iter()
                .find(|(iso, _)| *iso == c.iso2())
                .map_or(0.0, |(_, b)| *b);
            // Deterministic sub-epsilon tiebreak on the ISO code so the
            // order is total and stable.
            let tiebreak = f64::from(c.iso2().as_bytes()[0]) * 1e-9
                + f64::from(c.iso2().as_bytes()[1]) * 1e-11;
            (id, c.hosting() + bonus + tiebreak)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores finite"));
    scored.into_iter().map(|(id, _)| id).collect()
}

/// Claim count for a provider at `rank` (0-based, 0 = broadest):
/// a heavy-tailed decay from nearly-everything down to a couple of
/// countries, with small multiplicative noise.
fn claim_count_for_rank<R: Rng + ?Sized>(rank: usize, n_countries: usize, rng: &mut R) -> usize {
    let frac = match rank {
        0 => 0.97,
        _ => {
            // Exponential decay: rank 5 ≈ 0.45, rank 20 ≈ 0.24, rank 60 ≈ 0.08.
            let base = 0.62 * (-(rank as f64) / 22.0).exp() + 0.015;
            base * rng.random_range(0.85..1.15)
        }
    };
    ((n_countries as f64 * frac) as usize).clamp(2, n_countries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;
    use std::sync::OnceLock;

    fn setup() -> &'static (WorldAtlas, MarketSurvey) {
        static S: OnceLock<(WorldAtlas, MarketSurvey)> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = WorldAtlas::new(GeoGrid::new(1.0));
            let survey = MarketSurvey::generate(&atlas, 1807);
            (atlas, survey)
        })
    }

    #[test]
    fn survey_has_157_providers() {
        let (_, survey) = setup();
        assert_eq!(survey.providers().len(), SURVEY_SIZE);
    }

    #[test]
    fn counts_decrease_with_rank() {
        let (_, survey) = setup();
        let counts: Vec<usize> = survey.providers().iter().map(|p| p.claimed.len()).collect();
        // Broadest claimer covers nearly every country.
        assert!(counts[0] > 180, "top provider claims {}", counts[0]);
        // Rank 20 is far below the top; the median is modest.
        assert!(counts[20] < counts[0] / 2);
        let median = counts[SURVEY_SIZE / 2];
        assert!((3..=40).contains(&median), "median claim count {median}");
        // Weak monotonicity: averaged over windows, counts decline.
        let head: usize = counts[..20].iter().sum();
        let tail: usize = counts[SURVEY_SIZE - 20..].iter().sum();
        assert!(head > tail * 3);
    }

    #[test]
    fn popular_countries_top_the_order() {
        let (atlas, survey) = setup();
        let top10: Vec<&str> = survey.popularity_order()[..10]
            .iter()
            .map(|&id| atlas.country(id).iso2())
            .collect();
        // The paper's most commonly claimed countries (Fig. 18): the exact
        // order varies but the US must lead and these must all be top-10.
        assert_eq!(top10[0], "us");
        for iso in ["gb", "de", "nl"] {
            assert!(top10.contains(&iso), "{iso} not in top-10 {top10:?}");
        }
    }

    #[test]
    fn modest_providers_claim_common_countries() {
        let (atlas, survey) = setup();
        let us = atlas.country_by_iso2("us").unwrap();
        // Almost every provider claims the US.
        let freq = survey.claim_frequency(us);
        assert!(freq > SURVEY_SIZE * 8 / 10, "US claimed by only {freq}");
        // North Korea is claimed only by the very broadest.
        let kp = atlas.country_by_iso2("kp").unwrap();
        assert!(survey.claim_frequency(kp) <= 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let (atlas, survey) = setup();
        let again = MarketSurvey::generate(atlas, 1807);
        for (a, b) in survey.providers().iter().zip(again.providers()) {
            assert_eq!(a.claimed, b.claimed);
        }
    }
}
