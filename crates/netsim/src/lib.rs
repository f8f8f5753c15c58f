#![warn(missing_docs)]

//! # netsim — a deterministic packet-level Internet simulator
//!
//! The paper measures the real Internet: TCP connections from a measurement
//! client, through commercial VPN proxies, to RIPE Atlas landmarks. We
//! cannot measure the real Internet from this environment, so this crate
//! is the substitute substrate: a router-level world network whose delay
//! behaviour has the same *structure* that active geolocation exploits and
//! fights —
//!
//! * packets propagate at ≤ 200 km/ms (2/3 c in fibre, the CBG baseline),
//! * over *circuitous* router-level paths (cables follow geography and
//!   economics, not great circles), so the effective speed over the ground
//!   is roughly half the fibre speed (the paper's example bestline is
//!   93.5 km/ms),
//! * with per-router queueing delays that are small most of the time but
//!   heavy-tailed (congestion, bufferbloat), heavier in some regions than
//!   others (the paper: China/academic-network effects, §2),
//! * and with endpoint policies that filter ICMP, discard time-exceeded,
//!   and rate-limit unusual ports (§4.2: ~90 % of VPN servers ignore
//!   pings; a third break traceroute entirely).
//!
//! Two evaluation paths read the same routed hops and the same delay
//! model:
//!
//! * [`engine`] — the probe walk: one packet in flight, hop by hop, with
//!   TTLs, ICMP/TCP semantics, filtering, faults, and VPN tunnel
//!   forwarding. Every protocol-faithful measurement runs here: all of
//!   the audit's pings, self-pings and TCP connects, the examples, the
//!   protocol tests, and the tool-semantics figure.
//! * [`network::Network::sample_rtt_ms`] and friends — closed-form
//!   sampling of the same per-hop delay distributions along the same
//!   hops, used for bulk draws (two weeks of anchor-mesh calibration)
//!   where walking a packet would add cost but no fidelity. A test
//!   asserts the two paths agree in distribution.
//!
//! A route is resolved once into link-annotated hops ([`delay::Hop`]),
//! and each measurement handle keeps a small memo of the routes it
//! walked last (see [`routing`]).
//!
//! Everything is seeded and deterministic: same seed, same world, same
//! measurements. There are no threads and no wall-clock reads (the guides'
//! advice: CPU-bound simulation wants plain deterministic code, not an
//! async runtime).

pub mod adversary;
pub mod builder;
pub mod delay;
pub mod engine;
pub mod fault;
pub mod network;
pub mod policy;
pub mod routing;
pub mod time;
pub mod topology;

pub use adversary::{AdversaryPlan, AdversaryTally, ProxyTactic};
pub use builder::{WorldNet, WorldNetConfig};
pub use fault::{FaultPlan, OutageWindow, RateLimit};
pub use network::Network;
pub use policy::FilterPolicy;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, NodeKind, Topology};
