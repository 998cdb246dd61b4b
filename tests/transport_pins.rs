//! Pins for the transport with no golden of its own: QUIC page loads
//! under the fault scenarios that exercise its receive frontier (reorder,
//! duplication), its loss recovery (Gilbert-Elliott bursts) and its PTO
//! (a blackout over the handshake). Each case folds every captured packet
//! plus the retry count into one FNV-1a style digest; the expected values
//! were read at the commit before `stack::seq` replaced QUIC's
//! hand-written frontier and timer, so a refactor of `quic.rs` that moves
//! a single packet shows here.

use netsim::{FaultSchedule, Nanos};
use traces::loader::{load_page, LoaderConfig, RecoveryConfig, TransportKind};
use traces::sites::paper_sites;

fn quic_digest(scenario: Option<&str>, recovery: Option<RecoveryConfig>) -> (u64, usize) {
    let sites = paper_sites();
    let deadline = Nanos::from_secs(30);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut complete = 0;
    for (l, site) in sites.iter().enumerate().take(4) {
        let cfg = LoaderConfig {
            deadline,
            transport: TransportKind::Quic,
            faults: scenario
                .map(|name| FaultSchedule::scenario(name, 7 + l as u64, deadline).expect(name)),
            recovery,
            ..LoaderConfig::default()
        };
        let out = load_page(site, l, 0, 99, &cfg);
        for p in &out.trace.packets {
            fold(p.ts.0);
            fold(u64::from(p.size));
            fold(p.dir as u64);
        }
        fold(out.progress.retries);
        complete += usize::from(out.complete);
    }
    (h, complete)
}

fn pin(scenario: Option<&str>, recovery: Option<RecoveryConfig>, want: u64) {
    let (got, complete) = quic_digest(scenario, recovery);
    assert_eq!(complete, 4, "{scenario:?}: every visit completes");
    assert_eq!(got, want, "{scenario:?}: digest {got:#018x}");
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
