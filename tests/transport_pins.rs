//! Pins for the live send path, bit for bit.
//!
//! QUIC has no golden of its own: its page loads are pinned under the
//! fault scenarios that exercise its receive frontier (reorder,
//! duplication), its loss recovery (Gilbert-Elliott bursts) and its PTO
//! (a blackout over the handshake). TCP page loads, the two Figure 3
//! points (goodput bits plus the events the loop dispatched) and one
//! `Multiplex` replay are pinned the same way, so a change to the
//! transports, the qdisc→NIC feed or the buffers between them that moves
//! a single packet shows here.
//!
//! Each page-load case folds every captured packet plus the retry count
//! into one FNV-1a style digest; `server_wire_bytes` folds the wire bytes
//! the server sent over a mix of page loads. The QUIC values were read at the commit
//! before `stack::seq` replaced QUIC's hand-written frontier and timer;
//! the TCP, Figure 3 and `Multiplex` values at the commit before the
//! transports started writing into caller-owned buffers; the
//! `server_wire_bytes` value at the commit before a per-host counter
//! replaced the sum over the server capture. Re-read a value at the
//! parent of the change under test, never from the change.

use netsim::{FaultSchedule, Nanos};
use stack::mux::SplitterSpec;
use std::sync::{RwLock, RwLockReadGuard};
use stob_bench::multipath::replay_multipath;
use traces::loader::{load_page, LoaderConfig, RecoveryConfig, TransportKind};
use traces::sites::paper_sites;

/// `figure3_points` reads the process-wide `stack.net.events` counter
/// around its runs, so it takes this for writing; every other test holds
/// it for reading while it runs a network.
static EVENTS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    EVENTS.read().unwrap_or_else(|e| e.into_inner())
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn fold(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn trace(&mut self, t: &traces::Trace) {
        for p in &t.packets {
            self.fold(p.ts.0);
            self.fold(u64::from(p.size));
            self.fold(p.dir as u64);
        }
    }
}

fn page_digest(
    transport: TransportKind,
    scenario: Option<&str>,
    recovery: Option<RecoveryConfig>,
) -> (u64, usize) {
    let _g = shared();
    let sites = paper_sites();
    let deadline = Nanos::from_secs(30);
    let mut h = Fnv::new();
    let mut complete = 0;
    for (l, site) in sites.iter().enumerate().take(4) {
        let cfg = LoaderConfig {
            deadline,
            transport,
            faults: scenario
                .map(|name| FaultSchedule::scenario(name, 7 + l as u64, deadline).expect(name)),
            recovery,
            ..LoaderConfig::default()
        };
        let out = load_page(site, l, 0, 99, &cfg);
        h.trace(&out.trace);
        h.fold(out.progress.retries);
        complete += usize::from(out.complete);
    }
    (h.0, complete)
}

fn pin_on(
    transport: TransportKind,
    scenario: Option<&str>,
    recovery: Option<RecoveryConfig>,
    want: u64,
) {
    let (got, complete) = page_digest(transport, scenario, recovery);
    assert_eq!(complete, 4, "{scenario:?}: every visit completes");
    assert_eq!(got, want, "{scenario:?}: digest {got:#018x}");
}

fn pin(scenario: Option<&str>, recovery: Option<RecoveryConfig>, want: u64) {
    pin_on(TransportKind::Quic, scenario, recovery, want);
}

fn tcp(scenario: Option<&str>, recovery: Option<RecoveryConfig>, want: u64) {
    pin_on(TransportKind::Tcp, scenario, recovery, want);
}

fn on() -> Option<RecoveryConfig> {
    Some(RecoveryConfig::default())
}

#[test]
fn quic_clean() {
    pin(None, on(), 0xadec_0c59_471c_c0b1);
}

#[test]
fn quic_reorder() {
    pin(Some("reorder"), on(), 0x79f8_703b_9f07_d002);
}

#[test]
fn quic_ge_burst() {
    pin(Some("ge-burst"), on(), 0x3f62_89d3_460b_9261);
}

/// The one case where the recovery runtime changes the capture: without
/// it the burst losses are left to QUIC's own PTO alone.
#[test]
fn quic_ge_burst_recovery_off() {
    pin(Some("ge-burst"), None, 0xade5_5cca_c00b_1c84);
}

#[test]
fn quic_dup() {
    pin(Some("dup"), on(), 0xd455_d9ae_9544_9075);
}

#[test]
fn quic_blackout_early() {
    pin(Some("blackout-early"), on(), 0x04db_ba6e_1752_2ec5);
}

#[test]
fn tcp_clean() {
    tcp(None, None, 0x58e7_bfd7_a8f1_cfa2);
}

#[test]
fn tcp_reorder() {
    tcp(Some("reorder"), on(), 0x66ae_cb3b_69e1_e31b);
}

#[test]
fn tcp_ge_burst() {
    tcp(Some("ge-burst"), on(), 0x8855_4a8c_116b_2e54);
}

#[test]
fn tcp_ge_burst_recovery_off() {
    tcp(Some("ge-burst"), None, 0x0a02_eda3_04d7_092b);
}

/// The wire bytes the server sent (`VisitOutcome::server_wire_bytes`)
/// over four clean TCP visits, four TCP visits under `ge-burst` with
/// recovery on, one QUIC visit and one TCP visit its 40 ms deadline cuts
/// while the server's first flight is still on the wire.
#[test]
fn server_wire_bytes() {
    let _g = shared();
    let sites = paper_sites();
    let deadline = Nanos::from_secs(30);
    let mut h = Fnv::new();
    let mut visit = |l: usize, cfg: &LoaderConfig| {
        let out = load_page(&sites[l], l, 0, 99, cfg);
        h.fold(out.server_wire_bytes);
        out
    };
    for l in 0..4 {
        let clean = LoaderConfig {
            deadline,
            ..LoaderConfig::default()
        };
        assert!(visit(l, &clean).complete);
        let burst = LoaderConfig {
            deadline,
            faults: FaultSchedule::scenario("ge-burst", 7 + l as u64, deadline),
            recovery: on(),
            ..LoaderConfig::default()
        };
        assert!(visit(l, &burst).complete);
    }
    let quic = LoaderConfig {
        deadline,
        transport: TransportKind::Quic,
        ..LoaderConfig::default()
    };
    assert!(visit(0, &quic).complete);
    let cut = LoaderConfig {
        deadline: Nanos::from_millis(40),
        ..LoaderConfig::default()
    };
    let out = visit(3, &cut);
    assert!(!out.complete);
    // The client saw fewer bytes than the server sent: the cut left some
    // on the wire.
    assert!(out.trace.bytes(netsim::Direction::In) < out.server_wire_bytes);
    assert_eq!(h.0, 0x4806_08b6_595a_6d47, "digest {:#018x}", h.0);
}

/// Both Figure 3 points: the goodput's bits and the events the event
/// loop dispatched for them, which moves if an event is added or lost
/// even where the goodput does not.
#[test]
fn figure3_points() {
    let _g = EVENTS.write().unwrap_or_else(|e| e.into_inner());
    let events = netsim::tm_counter!("stack.net.events");
    let mut got = Vec::new();
    for alpha in [0, 40] {
        let before = events.get();
        let p = stob_bench::figure3_point(alpha, Nanos::from_millis(20), 12);
        got.push((alpha, p.goodput_gbps.to_bits(), events.get() - before));
    }
    let want = [
        (0, 0x4045_54ad_d73e_3fd7, 897_728),
        (40, 0x4033_f144_0ffa_4907, 463_790),
    ];
    assert_eq!(got, want, "{got:#x?}");
}

/// One page load replayed over three `Multiplex` legs with XOR parity
/// over every four datagrams, the first leg under an outage storm so
/// failover, probing and retransmission all run.
#[test]
fn mux_replay_three_legs_fec4() {
    let _g = shared();
    let sites = paper_sites();
    let cfg = LoaderConfig {
        deadline: Nanos::from_secs(30),
        ..LoaderConfig::default()
    };
    let page = load_page(&sites[0], 0, 0, 5, &cfg).trace;
    let (merged, legs) = replay_multipath(
        &page,
        &SplitterSpec::PaddedRandom,
        3,
        "outage-storm",
        Some(4),
        21,
    );
    let mut h = Fnv::new();
    h.trace(&merged);
    for leg in &legs {
        h.trace(leg);
    }
    let got = (merged.packets.len(), h.0);
    assert_eq!(got, (689, 0xcbd9_5b0b_572c_75d5), "{got:#x?}");
}
