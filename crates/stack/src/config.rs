//! Configuration for hosts, stacks and network paths.

use crate::cpu::CpuModel;
use netsim::Nanos;

/// Ethernet framing overhead per packet (bytes). `wire_len = ip_len + ETH`.
pub const ETH_OVERHEAD: u32 = 14;
/// IPv4 + TCP header (incl. 12 B timestamp option) per packet.
pub const IP_TCP_OVERHEAD: u32 = 52;
/// Minimum IP packet size we will emit for a data packet. RFC 879's
/// default MSS of 536 corresponds to a 576-byte IP packet; the paper's §3
/// chooses its splitting threshold so that split halves never go below the
/// minimum TCP MSS of 536 bytes.
pub const MIN_IP_PACKET: u32 = 588; // 536 payload + 52 headers

/// Which congestion controller a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    Reno,
    Cubic,
    Bbr,
}

/// Per-connection / per-stack tunables. Mirrors the knobs a kernel exposes
/// via sysctl and `setsockopt`.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Path MTU as an IP packet size (default 1500, i.e. Ethernet).
    pub mtu_ip: u32,
    /// Congestion controller.
    pub cc: CcKind,
    /// Initial congestion window in segments (RFC 6928 default).
    pub init_cwnd_segs: u32,
    /// Send socket buffer in bytes.
    pub send_buf: u64,
    /// Receive window we advertise (bytes). The HTTPOS-style baseline
    /// shrinks this to force small sender bursts — at large cost (§2.3).
    pub recv_wnd: u64,
    /// Whether TSO/GSO is enabled (off = one packet per segment).
    pub tso: bool,
    /// Maximum TSO segment size in packets (Linux: 64 KB => ~44 packets
    /// with a 1448-byte MSS).
    pub tso_max_pkts: u32,
    /// Enable FQ pacing of data segments (window-based CCAs pace at the
    /// phase gains in [`crate::cc`]).
    pub pacing: bool,
    /// TCP small queues: per-flow cap on bytes sitting in qdisc + NIC.
    pub tsq_limit: u64,
    /// Delayed-ACK: ACK every `delack_segs` full-sized segments...
    pub delack_segs: u32,
    /// ...or after this timeout, whichever first.
    pub delack_timeout: Nanos,
    /// Nagle's algorithm (off = TCP_NODELAY, the common case for web).
    pub nagle: bool,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub min_rto: Nanos,
    /// Initial RTO before any RTT sample (RFC 6298: 1 s).
    pub init_rto: Nanos,
}

impl StackConfig {
    /// MSS in payload bytes for the configured MTU.
    pub fn mss(&self) -> u32 {
        self.mtu_ip - IP_TCP_OVERHEAD
    }
    /// Wire length of a full-sized packet.
    pub fn full_wire(&self) -> u32 {
        self.mtu_ip + ETH_OVERHEAD
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            mtu_ip: 1500,
            cc: CcKind::Cubic,
            init_cwnd_segs: 10,
            send_buf: 32 << 20,
            recv_wnd: 32 << 20,
            tso: true,
            tso_max_pkts: 44,
            pacing: true,
            tsq_limit: 512 << 10,
            delack_segs: 2,
            delack_timeout: Nanos::from_millis(40),
            nagle: false,
            min_rto: Nanos::from_millis(200),
            init_rto: Nanos::from_secs(1),
        }
    }
}

/// A host: a CPU, a NIC line rate, and default stack settings for new
/// connections.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// NIC line rate in bits/s; TSO bursts serialize at this rate.
    pub nic_rate_bps: u64,
    pub cpu: CpuModel,
    pub stack: StackConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            nic_rate_bps: 100_000_000_000,
            cpu: CpuModel::default(),
            stack: StackConfig::default(),
        }
    }
}

/// The network path between the two hosts (symmetric dumbbell).
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Bottleneck rate in each direction (bits/s).
    pub bottleneck_bps: u64,
    /// One-way propagation delay.
    pub one_way_delay: Nanos,
    /// Bottleneck queue capacity in bytes.
    pub queue_bytes: u64,
    /// Independent random loss probability applied at the bottleneck
    /// (in addition to overflow drops). 0.0 for the wired experiments.
    pub loss: f64,
}

impl PathConfig {
    /// The 100 Gb/s short-RTT lab path of Figure 3 (two servers,
    /// back-to-back 100 GbE).
    pub fn lab_100g() -> Self {
        PathConfig {
            bottleneck_bps: 100_000_000_000,
            one_way_delay: Nanos::from_micros(25),
            queue_bytes: 8 << 20,
            loss: 0.0,
        }
    }

    /// A residential-access-like Internet path, used when generating
    /// website traces (client behind tens of Mb/s, tens of ms RTT).
    pub fn internet(bottleneck_mbps: u64, rtt_ms: u64) -> Self {
        PathConfig {
            bottleneck_bps: bottleneck_mbps * 1_000_000,
            one_way_delay: Nanos::from_micros(rtt_ms * 500),
            queue_bytes: (bottleneck_mbps * 1_000_000 / 8) / 4, // ~250 ms of buffer
            loss: 0.0,
        }
    }

    pub fn rtt(&self) -> Nanos {
        self.one_way_delay * 2
    }
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig::lab_100g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_matches_ethernet_defaults() {
        let c = StackConfig::default();
        assert_eq!(c.mss(), 1448);
        assert_eq!(c.full_wire(), 1514);
    }

    #[test]
    fn min_packet_honours_rfc879_floor() {
        assert_eq!(MIN_IP_PACKET - IP_TCP_OVERHEAD, 536);
    }

    #[test]
    fn internet_path_shape() {
        let p = PathConfig::internet(50, 30);
        assert_eq!(p.bottleneck_bps, 50_000_000);
        assert_eq!(p.rtt(), Nanos::from_millis(30));
        assert!(p.queue_bytes > 0);
    }

    #[test]
    fn lab_path_is_100g() {
        let p = PathConfig::lab_100g();
        assert_eq!(p.bottleneck_bps, 100_000_000_000);
        assert_eq!(p.rtt(), Nanos::from_micros(50));
    }
}
