//! Print each determinism scenario's contract bytes (plain, faulted,
//! armed+defended), audited as one shard on one thread.
//!
//! The bytes are a pure function of the code and the seed, so diffing
//! this binary's output between two commits shows exactly what a change
//! did to the study's deterministic output. Whether the bytes hold
//! across shard and thread splits is checked in-process by the
//! determinism matrix (`cargo test -p bench --test determinism`).
//!
//! ```text
//! cargo run --release --offline -p bench --bin determinism_report > bytes.txt
//! ```

use bench::determinism::{audit, contract_bytes, Scenario, REFERENCE};

fn main() {
    for scenario in Scenario::ALL {
        let (study, results) = audit(scenario, &scenario.config(scenario.seed()), REFERENCE);
        println!("=== {} ===", scenario.name());
        print!("{}", contract_bytes(&study, &results));
    }
}
