//! Simulated IP-to-location databases (§6.2, Fig. 21).
//!
//! The paper compares its active measurements against five commercial
//! databases and finds "all five … are more likely to agree with the
//! providers' claims than either active-geolocation approach", consistent
//! with its hypothesis that providers influence the databases with some
//! lag: fresh entries default to registry information (close to the
//! truth, i.e. the data-center country), and "when the database services
//! attempt to make a more precise assessment, this draws on the source
//! that the providers can influence".
//!
//! We implement exactly that generating process: per database, each
//! proxy's entry echoes the provider's claim with a database-specific
//! probability, and otherwise reports the registry view (the true
//! hosting country).

use crate::providers::DeployedProxy;
use worldmap::CountryId;

/// One simulated IP-to-location database.
#[derive(Debug, Clone)]
pub struct IpDatabase {
    /// Display name (the paper's five: DB-IP, Eureka, IP2Location,
    /// IPInfo, MaxMind).
    pub name: &'static str,
    /// Probability an entry has been "assessed" (echoes the claim).
    pub influence: f64,
}

/// The five databases of Fig. 21, with per-database influence levels
/// chosen to reproduce its row ordering (every database agrees with
/// providers far more often than active geolocation does).
pub fn paper_databases() -> Vec<IpDatabase> {
    vec![
        IpDatabase {
            name: "DB-IP",
            influence: 0.93,
        },
        IpDatabase {
            name: "Eureka",
            influence: 0.97,
        },
        IpDatabase {
            name: "IP2Location",
            influence: 0.82,
        },
        IpDatabase {
            name: "IPInfo",
            influence: 0.88,
        },
        IpDatabase {
            name: "MaxMind",
            influence: 0.98,
        },
    ]
}

impl IpDatabase {
    /// Look up a proxy: the claimed country (influenced entry) or the
    /// registry/true country. Deterministic per (database, proxy): the
    /// decision is a hash of the proxy's identity, not an RNG stream, so
    /// lookups are stable and order-independent.
    pub fn lookup(&self, proxy: &DeployedProxy) -> CountryId {
        if self.hash_unit(proxy) < self.influence {
            proxy.claimed
        } else {
            proxy.true_country
        }
    }

    /// Does this database agree with the provider's claim for the proxy?
    pub fn agrees_with_claim(&self, proxy: &DeployedProxy) -> bool {
        self.lookup(proxy) == proxy.claimed
    }

    /// Stable per-(db, proxy) uniform draw in [0, 1).
    fn hash_unit(&self, proxy: &DeployedProxy) -> f64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self
            .name
            .bytes()
            .chain(proxy.node.to_le_bytes())
            .chain((proxy.provider as u32).to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoPoint;

    fn proxy(node: u32, claimed: CountryId, true_country: CountryId) -> DeployedProxy {
        DeployedProxy {
            node,
            provider: 0,
            claimed,
            true_country,
            true_location: GeoPoint::new(0.0, 0.0),
            group_key: (0, true_country, 0),
            pingable: false,
            gateway: 0,
        }
    }

    #[test]
    fn five_databases() {
        assert_eq!(paper_databases().len(), 5);
    }

    #[test]
    fn lookup_is_deterministic() {
        let db = &paper_databases()[0];
        let p = proxy(42, 3, 9);
        assert_eq!(db.lookup(&p), db.lookup(&p));
    }

    #[test]
    fn agreement_rate_tracks_influence() {
        for db in paper_databases() {
            let agreements = (0..2000)
                .filter(|&i| db.agrees_with_claim(&proxy(i, 3, 9)))
                .count();
            let rate = agreements as f64 / 2000.0;
            assert!(
                (rate - db.influence).abs() < 0.04,
                "{}: rate {rate} vs influence {}",
                db.name,
                db.influence
            );
        }
    }

    #[test]
    fn honest_proxies_always_agree() {
        // When claim == truth both branches return the same country.
        let db = &paper_databases()[2];
        for i in 0..200 {
            assert!(db.agrees_with_claim(&proxy(i, 5, 5)));
        }
    }

    #[test]
    fn databases_differ_on_the_same_proxy() {
        // With different influence levels and hash salts, at least one
        // proxy in a sample gets different answers from different DBs.
        let dbs = paper_databases();
        let mut differs = false;
        for i in 0..500 {
            let p = proxy(i, 3, 9);
            let first = dbs[0].lookup(&p);
            if dbs.iter().any(|db| db.lookup(&p) != first) {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }
}
