//! The host-speed gauge. This benchmark runs on a shared virtual machine
//! whose speed changes from second to second (another tenant on the
//! sibling hardware thread, frequency steps, cache pressure): the same
//! repetition takes 30–50 % longer in one second than in the next, and
//! whole minutes run slower than others. No sample size a run can afford
//! averages that away, so the untraced run cancels it: between the timed
//! calls into the library it runs a *slice* of fixed work from this file
//! — code no change to the repository can touch — and divides each timed
//! segment by how slow the slices beside it ran. Times reported this way
//! are seconds *at the nominal host speed*, the speed at which a slice
//! takes [`NOMINAL_SLICE_S`]; the raw wall-clock figures are printed
//! beside them.
//!
//! A slice mixes the four things the host's mood acts on differently:
//! issue width (eight independent shift/xor chains), first-level cache
//! traffic (a 16 KiB histogram), second-level traffic (a 2 MiB
//! histogram) and branch prediction (data-dependent branches). A
//! dependent chain or a pointer chase alone barely feels a busy sibling
//! thread and is useless as a reference for code that does.

use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on the development host in its usual state. It
/// only fixes the scale of the normalised figures; it is not tuned.
pub const NOMINAL_SLICE_S: f64 = 0.021;
/// A timed segment takes a fresh reading first when the last one is
/// older than this, so short segments share readings and long ones are
/// bracketed.
const STALE_S: f64 = 0.25;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

struct Kernel {
    lanes: [u64; 8],
    l1: Vec<u32>,
    l2: Vec<u32>,
    acc: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            lanes: [1, 2, 3, 4, 5, 6, 7, 8],
            l1: vec![0; 4 << 10],
            l2: vec![0; 512 << 10],
            acc: 0,
        }
    }

    #[inline(never)]
    fn alu(&mut self, iters: u32) {
        for _ in 0..iters {
            for x in &mut self.lanes {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
            }
        }
    }

    #[inline(never)]
    fn histogram(lanes: &mut [u64; 8], table: &mut [u32], iters: u32) {
        let mask = table.len() - 1;
        for _ in 0..iters {
            for x in lanes.iter_mut() {
                *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                let i = (*x >> 33) as usize & mask;
                table[i] = table[i].wrapping_add(1);
            }
        }
    }

    #[inline(never)]
    fn branches(&mut self, iters: u32) {
        for _ in 0..iters {
            for x in &mut self.lanes {
                *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                if (*x >> 40) & 1 == 1 {
                    self.acc = self.acc.wrapping_add(*x >> 7);
                } else {
                    self.acc ^= *x;
                }
                if (*x >> 41) & 3 == 0 {
                    self.acc = self.acc.rotate_left(5);
                }
            }
        }
    }

    /// One slice of fixed work; returns its host seconds.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        self.alu(1_500_000);
        Self::histogram(&mut self.lanes, &mut self.l1, 1_050_000);
        Self::histogram(&mut self.lanes, &mut self.l2, 450_000);
        self.branches(375_000);
        black_box((self.acc, self.l1[0], self.l2[0]));
        t.elapsed().as_secs_f64()
    }
}

/// A timed call: raw host seconds and the reading taken before it.
struct Segment {
    raw_s: f64,
    before: usize,
}

/// Times segments and, when enabled, brackets them with slices.
pub struct Gauge {
    kernel: Option<Kernel>,
    /// Slice times, in the order taken.
    readings: Vec<f64>,
    last_reading: Option<Instant>,
    segments: Vec<Segment>,
}

/// Host time of the segments since the last [`Gauge::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds inside the timed calls.
    pub raw_s: f64,
    /// The same at the nominal host speed. Equals `raw_s` when the gauge
    /// is off.
    pub nominal_s: f64,
}

impl Gauge {
    /// Times segments without taking readings: `nominal_s == raw_s`.
    pub fn off() -> Self {
        Gauge {
            kernel: None,
            readings: Vec::new(),
            last_reading: None,
            segments: Vec::new(),
        }
    }

    /// Takes readings. The first slice of a process pays for the page
    /// faults of the tables and runs two to three times slower than the
    /// next, so it is run here and thrown away.
    pub fn on() -> Self {
        let mut kernel = Kernel::new();
        kernel.slice();
        Gauge {
            kernel: Some(kernel),
            ..Gauge::off()
        }
    }

    /// Take a reading now. Returns its index.
    pub fn read(&mut self) -> usize {
        if let Some(k) = &mut self.kernel {
            self.readings.push(k.slice());
            self.last_reading = Some(Instant::now());
        }
        self.readings.len().saturating_sub(1)
    }

    fn read_if_stale(&mut self) -> usize {
        match self.last_reading {
            Some(at) if at.elapsed().as_secs_f64() < STALE_S => self.readings.len() - 1,
            _ => self.read(),
        }
    }

    /// Run and time `f` as one segment.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.read_if_stale();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.segments.push(Segment { raw_s, before });
        out
    }

    /// Close the open segments with a reading and total them. Each is
    /// scaled by the mean of the reading before it and the first one
    /// after it.
    pub fn finish(&mut self) -> Timed {
        if !self.segments.is_empty() {
            self.read_if_stale();
        }
        let mut out = Timed {
            raw_s: 0.0,
            nominal_s: 0.0,
        };
        for s in self.segments.drain(..) {
            out.raw_s += s.raw_s;
            out.nominal_s += match self.readings.get(s.before) {
                Some(&before) => {
                    let after = self.readings.get(s.before + 1).copied().unwrap_or(before);
                    s.raw_s * NOMINAL_SLICE_S / (0.5 * (before + after))
                }
                None => s.raw_s,
            };
        }
        out
    }

    /// Mean slice time over the readings from index `from` on, as a
    /// factor on raw seconds: `raw × factor` is seconds at nominal speed.
    /// 1 when the gauge is off.
    pub fn factor_since(&self, from: usize) -> f64 {
        match self.readings.get(from..) {
            Some(r) if !r.is_empty() => NOMINAL_SLICE_S * r.len() as f64 / r.iter().sum::<f64>(),
            _ => 1.0,
        }
    }

    /// Every reading so far, seconds per slice.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_gauge_reports_raw_time_and_takes_no_reading() {
        let mut g = Gauge::off();
        assert_eq!(g.time(|| 7), 7);
        let t = g.finish();
        assert!(t.raw_s > 0.0);
        assert_eq!(t.raw_s, t.nominal_s);
        assert!(g.readings().is_empty());
        assert_eq!(g.factor_since(0), 1.0);
    }

    #[test]
    fn segments_are_scaled_by_the_readings_beside_them() {
        let mut g = Gauge::off();
        // Two readings twice as slow as nominal around one segment, then a
        // segment between a slow and a nominal reading.
        g.readings = vec![2.0 * NOMINAL_SLICE_S, 2.0 * NOMINAL_SLICE_S, NOMINAL_SLICE_S];
        g.segments = vec![
            Segment {
                raw_s: 1.0,
                before: 0,
            },
            Segment {
                raw_s: 3.0,
                before: 1,
            },
        ];
        let t = g.finish();
        assert_eq!(t.raw_s, 4.0);
        assert!((t.nominal_s - (0.5 + 2.0)).abs() < 1e-12, "{t:?}");
        assert!((g.factor_since(1) - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn short_segments_share_a_reading_and_finish_closes_them() {
        let mut g = Gauge::on();
        for _ in 0..5 {
            g.time(|| ());
        }
        let t = g.finish();
        // One reading before the first segment; the closing one is not
        // stale either, so the five segments are scaled by that one.
        assert_eq!(g.readings().len(), 1);
        assert!(t.nominal_s > 0.0 && t.raw_s > 0.0);
    }
}
