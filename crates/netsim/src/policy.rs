//! Endpoint and middlebox filtering policies.
//!
//! The paper's measurement design is forced by aggressive filtering
//! (§4.2): ~90 % of VPN servers ignore ICMP echo, ~90 % of their gateways
//! send no time-exceeded, a third of servers discard time-exceeded
//! entirely, and unusual TCP/UDP ports are dropped. The only reliable
//! probe is a TCP connection to a common port. These policies model that.

/// What a node does with arriving packets addressed to it (or, for
/// time-exceeded handling, expiring at it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterPolicy {
    /// Silently drop ICMP echo requests (no echo reply).
    pub drop_icmp_echo: bool,
    /// Do not emit ICMP time-exceeded when a TTL expires here (breaks
    /// traceroute *through* this node).
    pub drop_time_exceeded: bool,
    /// TCP ports that accept connections (SYN → SYN-ACK). A connection to
    /// a closed-but-not-filtered port is refused (RST), which still
    /// measures one round trip — the CLI tool counts "connection refused"
    /// as success (§4.2).
    pub open_tcp_ports: Vec<u16>,
    /// TCP ports that are silently dropped (filtered): no SYN-ACK, no RST.
    /// Connections to these time out and measure nothing.
    pub filtered_tcp_ports: Vec<u16>,
}

impl Default for FilterPolicy {
    /// A cooperative Internet host: answers pings, emits time-exceeded,
    /// listens on ports 80 and 443.
    fn default() -> Self {
        FilterPolicy {
            drop_icmp_echo: false,
            drop_time_exceeded: false,
            open_tcp_ports: vec![80, 443],
            filtered_tcp_ports: Vec::new(),
        }
    }
}

/// How a node responds to a TCP SYN on a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynResponse {
    /// Port open: SYN-ACK after one-way trip. `connect()` succeeds.
    SynAck,
    /// Port closed: RST. `connect()` reports "connection refused" — still
    /// a valid one-round-trip measurement.
    Rst,
    /// Port filtered: silence. The measurement times out and is discarded.
    Dropped,
}

impl FilterPolicy {
    /// A typical commercial VPN server (paper §4.2): ignores pings, eats
    /// time-exceeded, accepts only the common web ports.
    pub fn vpn_server() -> FilterPolicy {
        FilterPolicy {
            drop_icmp_echo: true,
            drop_time_exceeded: true,
            open_tcp_ports: vec![80, 443, 1194],
            filtered_tcp_ports: vec![],
        }
    }

    /// A RIPE-Atlas-style landmark: pingable, but whether port 80 is open
    /// depends on the node software version (§4.2: "we cannot tell in
    /// advance") — the builder randomizes `port_80_open`.
    pub fn landmark(port_80_open: bool) -> FilterPolicy {
        FilterPolicy {
            drop_icmp_echo: false,
            drop_time_exceeded: false,
            open_tcp_ports: if port_80_open {
                vec![80, 443]
            } else {
                vec![443]
            },
            filtered_tcp_ports: Vec::new(),
        }
    }

    /// Response to a TCP SYN on `port`.
    pub fn syn_response(&self, port: u16) -> SynResponse {
        if self.filtered_tcp_ports.contains(&port) {
            SynResponse::Dropped
        } else if self.open_tcp_ports.contains(&port) {
            SynResponse::SynAck
        } else {
            SynResponse::Rst
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_cooperative() {
        let p = FilterPolicy::default();
        assert!(!p.drop_icmp_echo);
        assert_eq!(p.syn_response(80), SynResponse::SynAck);
        assert_eq!(p.syn_response(12345), SynResponse::Rst);
    }

    #[test]
    fn vpn_server_filters() {
        let p = FilterPolicy::vpn_server();
        assert!(p.drop_icmp_echo);
        assert!(p.drop_time_exceeded);
        assert_eq!(p.syn_response(443), SynResponse::SynAck);
    }

    #[test]
    fn filtered_beats_open() {
        let p = FilterPolicy {
            open_tcp_ports: vec![80],
            filtered_tcp_ports: vec![80],
            ..FilterPolicy::default()
        };
        assert_eq!(p.syn_response(80), SynResponse::Dropped);
    }

    #[test]
    fn landmark_port_80_variants() {
        assert_eq!(
            FilterPolicy::landmark(true).syn_response(80),
            SynResponse::SynAck
        );
        assert_eq!(
            FilterPolicy::landmark(false).syn_response(80),
            SynResponse::Rst
        );
    }
}
