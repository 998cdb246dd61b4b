//! The k-FP feature vector.
//!
//! Hayes & Danezis's k-fingerprinting attack extracts ~150 hand-crafted
//! statistics from (timestamp, direction) sequences: packet counts,
//! inter-arrival statistics, timestamp quantiles, per-second rates,
//! ordering statistics, chunked concentration of outgoing packets, and
//! burst behaviour. We reproduce that feature family with a fixed layout
//! of [`N_FEATURES`] values.
//!
//! §3 extracts only "packet timestamps and directions", so size-derived
//! features are OFF by default ([`FeatureConfig::paper`]); they can be
//! enabled for the size-aware ablations.

use netsim::{par, percentile, percentile_sorted, Direction, RunningStats};
use traces::Trace;

/// Concentration chunks kept as raw features.
const N_CHUNKS: usize = 50;
/// Per-interval packet-rate bins kept as raw features.
const N_RATE_BINS: usize = 20;
/// Width of one rate bin in seconds.
const RATE_BIN_SECS: f64 = 0.5;
/// Packets per concentration chunk.
const CHUNK_PKTS: usize = 20;
/// Burst-length thresholds for the `gt5`/`gt10`/`gt15` burst features.
const BURST_GT: [usize; 3] = [5, 10, 15];
/// Wire size at or above which a packet counts as full (MTU-sized).
const FULL_SIZE: u32 = 1514;

/// Fixed length of the feature vector.
pub const N_FEATURES: usize = 5    // counts
    + 1                            // duration
    + 12                           // IAT stats (all/in/out x 4)
    + 12                           // timestamp quantiles (all/in/out x 4)
    + N_RATE_BINS + 5              // per-interval rates + stats
    + 4                            // ordering mean/std per direction
    + N_CHUNKS + 6                 // concentration chunks + stats
    + 12                           // burst stats per direction
    + 4                            // first/last 30 composition
    + 12; // size features (zeroed unless enabled)

/// Extraction options.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Include packet-size-derived features.
    pub use_sizes: bool,
}

impl FeatureConfig {
    /// The paper's setting: timestamps + directions only.
    pub fn paper() -> Self {
        FeatureConfig { use_sizes: false }
    }
    pub fn with_sizes() -> Self {
        FeatureConfig { use_sizes: true }
    }
}

fn stats4(samples: &[f64]) -> [f64; 4] {
    if samples.is_empty() {
        return [0.0; 4];
    }
    let mut rs = RunningStats::new();
    for &s in samples {
        rs.push(s);
    }
    [rs.max(), rs.mean(), rs.std_dev(), percentile(samples, 75.0)]
}

fn quantiles4(samples: &[f64]) -> [f64; 4] {
    if samples.is_empty() {
        return [0.0; 4];
    }
    [
        percentile(samples, 25.0),
        percentile(samples, 50.0),
        percentile(samples, 75.0),
        percentile(samples, 100.0),
    ]
}

fn burst_features(dirs: &[i8], dir: i8) -> [f64; 6] {
    let mut bursts: Vec<usize> = Vec::new();
    let mut run = 0usize;
    for &d in dirs {
        if d == dir {
            run += 1;
        } else if run > 0 {
            bursts.push(run);
            run = 0;
        }
    }
    if run > 0 {
        bursts.push(run);
    }
    if bursts.is_empty() {
        return [0.0; 6];
    }
    let max = *bursts.iter().max().expect("nonempty") as f64;
    let mean = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
    [
        bursts.len() as f64,
        max,
        mean,
        bursts.iter().filter(|&&b| b > 5).count() as f64,
        bursts.iter().filter(|&&b| b > 10).count() as f64,
        bursts.iter().filter(|&&b| b > 15).count() as f64,
    ]
}

/// Extract the k-FP feature vector from a trace.
pub fn extract_features(trace: &Trace, cfg: &FeatureConfig) -> Vec<f64> {
    let mut f = Vec::with_capacity(N_FEATURES);
    let n = trace.len();
    let dirs: Vec<i8> = trace.packets.iter().map(|p| p.dir.sign()).collect();
    let times: Vec<f64> = trace.packets.iter().map(|p| p.ts.as_secs_f64()).collect();
    let n_out = dirs.iter().filter(|&&d| d > 0).count();
    let n_in = n - n_out;

    // ---- counts (5) ----
    f.push(n as f64);
    f.push(n_in as f64);
    f.push(n_out as f64);
    f.push(if n > 0 { n_in as f64 / n as f64 } else { 0.0 });
    f.push(if n > 0 { n_out as f64 / n as f64 } else { 0.0 });

    // ---- duration (1) ----
    f.push(times.last().copied().unwrap_or(0.0));

    // ---- inter-arrival stats (12) ----
    let iats_all: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    let times_in: Vec<f64> = times
        .iter()
        .zip(&dirs)
        .filter(|(_, &d)| d < 0)
        .map(|(&t, _)| t)
        .collect();
    let times_out: Vec<f64> = times
        .iter()
        .zip(&dirs)
        .filter(|(_, &d)| d > 0)
        .map(|(&t, _)| t)
        .collect();
    let iats_in: Vec<f64> = times_in.windows(2).map(|w| w[1] - w[0]).collect();
    let iats_out: Vec<f64> = times_out.windows(2).map(|w| w[1] - w[0]).collect();
    f.extend(stats4(&iats_all));
    f.extend(stats4(&iats_in));
    f.extend(stats4(&iats_out));

    // ---- timestamp quantiles (12) ----
    f.extend(quantiles4(&times));
    f.extend(quantiles4(&times_in));
    f.extend(quantiles4(&times_out));

    // ---- per-interval packet rates (20 + 5) ----
    let mut bins = vec![0.0f64; N_RATE_BINS];
    for &t in &times {
        let b = (t / RATE_BIN_SECS) as usize;
        if b < N_RATE_BINS {
            bins[b] += 1.0;
        }
    }
    f.extend(bins.iter().copied());
    f.extend({
        let s = stats4(&bins);
        let med = percentile(&bins, 50.0);
        [s[0], s[1], s[2], s[3], med]
    });

    // ---- ordering (4): index positions of each direction ----
    let idx_out: Vec<f64> = dirs
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0)
        .map(|(i, _)| i as f64)
        .collect();
    let idx_in: Vec<f64> = dirs
        .iter()
        .enumerate()
        .filter(|(_, &d)| d < 0)
        .map(|(i, _)| i as f64)
        .collect();
    let so = stats4(&idx_out);
    let si = stats4(&idx_in);
    f.push(so[1]);
    f.push(so[2]);
    f.push(si[1]);
    f.push(si[2]);

    // ---- concentration of outgoing packets (50 + 6) ----
    let chunks: Vec<f64> = dirs
        .chunks(20)
        .map(|c| c.iter().filter(|&&d| d > 0).count() as f64)
        .collect();
    for i in 0..N_CHUNKS {
        f.push(chunks.get(i).copied().unwrap_or(0.0));
    }
    if chunks.is_empty() {
        f.extend([0.0; 6]);
    } else {
        let s = stats4(&chunks);
        let med = percentile(&chunks, 50.0);
        let sum: f64 = chunks.iter().sum();
        f.extend([s[0], s[1], s[2], s[3], med, sum]);
    }

    // ---- bursts (12) ----
    f.extend(burst_features(&dirs, -1));
    f.extend(burst_features(&dirs, 1));

    // ---- first/last 30 composition (4) ----
    let first30 = &dirs[..n.min(30)];
    let last30 = &dirs[n.saturating_sub(30)..];
    f.push(first30.iter().filter(|&&d| d < 0).count() as f64);
    f.push(first30.iter().filter(|&&d| d > 0).count() as f64);
    f.push(last30.iter().filter(|&&d| d < 0).count() as f64);
    f.push(last30.iter().filter(|&&d| d > 0).count() as f64);

    // ---- sizes (12, zeroed when disabled) ----
    if cfg.use_sizes {
        let sz_in: Vec<f64> = trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .map(|p| p.size as f64)
            .collect();
        let sz_out: Vec<f64> = trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::Out)
            .map(|p| p.size as f64)
            .collect();
        f.push(sz_in.iter().sum());
        f.push(sz_out.iter().sum());
        f.extend(stats4(&sz_in));
        f.extend(stats4(&sz_out));
        let mut uniq: Vec<u32> = trace.packets.iter().map(|p| p.size).collect();
        uniq.sort_unstable();
        uniq.dedup();
        f.push(uniq.len() as f64);
        let full = trace.packets.iter().filter(|p| p.size >= 1514).count();
        f.push(if n > 0 { full as f64 / n as f64 } else { 0.0 });
    } else {
        f.extend(std::iter::repeat_n(0.0, 12));
    }

    debug_assert_eq!(f.len(), N_FEATURES);
    f
}

/// Reusable per-worker buffers: one allocation set per extractor, not
/// per trace. Every buffer is cleared (capacity retained) per trace.
#[derive(Debug, Default)]
struct FeatureScratch {
    times: Vec<f64>,
    times_in: Vec<f64>,
    times_out: Vec<f64>,
    iats_all: Vec<f64>,
    iats_in: Vec<f64>,
    iats_out: Vec<f64>,
    chunks: Vec<f64>,
    bins: [f64; N_RATE_BINS],
    sz_in: Vec<f64>,
    sz_out: Vec<f64>,
    uniq: Vec<u32>,
}

impl FeatureScratch {
    fn reset(&mut self, n: usize) {
        self.times.clear();
        self.times_in.clear();
        self.times_out.clear();
        self.iats_all.clear();
        self.iats_in.clear();
        self.iats_out.clear();
        self.chunks.clear();
        self.chunks.resize(n.div_ceil(CHUNK_PKTS), 0.0);
        self.bins = [0.0; N_RATE_BINS];
        self.sz_in.clear();
        self.sz_out.clear();
        self.uniq.clear();
    }
}

/// Run-length accumulator for one direction's bursts.
#[derive(Debug, Default, Clone, Copy)]
struct BurstAcc {
    count: usize,
    max: usize,
    sum: usize,
    gt: [usize; 3],
}

impl BurstAcc {
    fn flush(&mut self, run: usize) {
        self.count += 1;
        self.max = self.max.max(run);
        self.sum += run;
        for (acc, &thr) in self.gt.iter_mut().zip(&BURST_GT) {
            if run > thr {
                *acc += 1;
            }
        }
    }

    fn features(&self) -> [f64; 6] {
        if self.count == 0 {
            return [0.0; 6];
        }
        [
            self.count as f64,
            self.max as f64,
            self.sum as f64 / self.count as f64,
            self.gt[0] as f64,
            self.gt[1] as f64,
            self.gt[2] as f64,
        ]
    }
}

/// Welford the buffer in push order, then sort it in place and read the
/// percentile from the sorted data — the same `[max, mean, std, p75]` as
/// [`stats4`], bit-for-bit, with one sort and zero allocations. The
/// unstable sort is safe: feature buffers never contain NaN or -0.0, so
/// equal keys are bitwise-identical and order among them cannot matter.
fn stats4_sorting(buf: &mut [f64]) -> [f64; 4] {
    if buf.is_empty() {
        return [0.0; 4];
    }
    let mut rs = RunningStats::new();
    for &s in buf.iter() {
        rs.push(s);
    }
    buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in feature buffer"));
    [
        rs.max(),
        rs.mean(),
        rs.std_dev(),
        percentile_sorted(buf, 75.0),
    ]
}

/// Sort in place, then read all four quantiles from the one sorted
/// buffer — same values as [`quantiles4`].
fn quantiles4_sorting(buf: &mut [f64]) -> [f64; 4] {
    if buf.is_empty() {
        return [0.0; 4];
    }
    buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in feature buffer"));
    [
        percentile_sorted(buf, 25.0),
        percentile_sorted(buf, 50.0),
        percentile_sorted(buf, 75.0),
        percentile_sorted(buf, 100.0),
    ]
}

/// Single-pass k-FP feature extractor with reusable buffers.
///
/// Produces exactly the same vector as [`extract_features`] (pinned by
/// `tests/perf_equivalence.rs` and the goldens) but folds the counts,
/// rate bins, ordering moments, concentration chunks, bursts, prefix/
/// suffix composition and size sums into one walk over the trace's
/// packets, and sorts each stat buffer once instead of copy-sorting per
/// percentile. Construct once per worker and feed it many traces; the
/// scratch buffers amortize to zero allocations.
#[derive(Debug)]
pub struct FeatureExtractor {
    cfg: FeatureConfig,
    scratch: FeatureScratch,
}

impl FeatureExtractor {
    pub fn new(cfg: &FeatureConfig) -> Self {
        FeatureExtractor {
            cfg: *cfg,
            scratch: FeatureScratch::default(),
        }
    }

    /// The feature vector of `trace`.
    pub fn extract(&mut self, trace: &Trace) -> Vec<f64> {
        let n = trace.len();
        let sc = &mut self.scratch;
        sc.reset(n);
        let mut f = Vec::with_capacity(N_FEATURES);

        // ---- the one walk: fold everything that streams ----
        let mut n_out = 0usize;
        let mut prev_t = 0.0f64;
        let mut prev_in: Option<f64> = None;
        let mut prev_out: Option<f64> = None;
        let mut ord_in = RunningStats::new();
        let mut ord_out = RunningStats::new();
        let mut bursts = [BurstAcc::default(); 2]; // [in, out]
        let mut run_dir = Direction::Out;
        let mut run = 0usize;
        let mut first30 = [0usize; 2]; // [in, out]
        let mut last30 = [0usize; 2];
        // -0.0 is what `iter::Sum for f64` starts from (so an empty sum is
        // -0.0); match it exactly for bitwise parity with the reference.
        let mut sum_in = -0.0f64;
        let mut sum_out = -0.0f64;
        let mut n_full = 0usize;
        for (i, p) in trace.packets.iter().enumerate() {
            let t = p.ts.as_secs_f64();
            let dir = p.dir;
            let out = dir == Direction::Out;
            sc.times.push(t);
            if i > 0 {
                sc.iats_all.push(t - prev_t);
            }
            prev_t = t;
            if out {
                n_out += 1;
                if let Some(prev) = prev_out {
                    sc.iats_out.push(t - prev);
                }
                prev_out = Some(t);
                sc.times_out.push(t);
                ord_out.push(i as f64);
                sc.chunks[i / CHUNK_PKTS] += 1.0;
            } else {
                if let Some(prev) = prev_in {
                    sc.iats_in.push(t - prev);
                }
                prev_in = Some(t);
                sc.times_in.push(t);
                ord_in.push(i as f64);
            }
            let b = (t / RATE_BIN_SECS) as usize;
            if b < N_RATE_BINS {
                sc.bins[b] += 1.0;
            }
            if dir == run_dir {
                run += 1;
            } else {
                if run > 0 {
                    bursts[(run_dir == Direction::Out) as usize].flush(run);
                }
                run_dir = dir;
                run = 1;
            }
            if i < 30 {
                first30[out as usize] += 1;
            }
            if i + 30 >= n {
                last30[out as usize] += 1;
            }
            if self.cfg.use_sizes {
                let sz = p.size;
                if out {
                    sum_out += sz as f64;
                    sc.sz_out.push(sz as f64);
                } else {
                    sum_in += sz as f64;
                    sc.sz_in.push(sz as f64);
                }
                sc.uniq.push(sz);
                if sz >= FULL_SIZE {
                    n_full += 1;
                }
            }
        }
        if run > 0 {
            bursts[(run_dir == Direction::Out) as usize].flush(run);
        }
        let n_in = n - n_out;

        // ---- counts (5) ----
        f.push(n as f64);
        f.push(n_in as f64);
        f.push(n_out as f64);
        f.push(if n > 0 { n_in as f64 / n as f64 } else { 0.0 });
        f.push(if n > 0 { n_out as f64 / n as f64 } else { 0.0 });

        // ---- duration (1) ----
        f.push(sc.times.last().copied().unwrap_or(0.0));

        // ---- inter-arrival stats (12) ----
        f.extend(stats4_sorting(&mut sc.iats_all));
        f.extend(stats4_sorting(&mut sc.iats_in));
        f.extend(stats4_sorting(&mut sc.iats_out));

        // ---- timestamp quantiles (12); rates and IATs are already folded,
        // so sorting the time buffers in place is safe ----
        f.extend(quantiles4_sorting(&mut sc.times));
        f.extend(quantiles4_sorting(&mut sc.times_in));
        f.extend(quantiles4_sorting(&mut sc.times_out));

        // ---- per-interval packet rates (20 + 5) ----
        f.extend_from_slice(&sc.bins);
        let s = stats4_sorting(&mut sc.bins);
        let med = percentile_sorted(&sc.bins, 50.0);
        f.extend([s[0], s[1], s[2], s[3], med]);

        // ---- ordering (4) ----
        f.push(ord_out.mean());
        f.push(ord_out.std_dev());
        f.push(ord_in.mean());
        f.push(ord_in.std_dev());

        // ---- concentration of outgoing packets (50 + 6) ----
        for i in 0..N_CHUNKS {
            f.push(sc.chunks.get(i).copied().unwrap_or(0.0));
        }
        if sc.chunks.is_empty() {
            f.extend([0.0; 6]);
        } else {
            // Integer-valued, so the sum is exact in any order; taken before
            // the stats sort all the same.
            let sum: f64 = sc.chunks.iter().sum();
            let s = stats4_sorting(&mut sc.chunks);
            let med = percentile_sorted(&sc.chunks, 50.0);
            f.extend([s[0], s[1], s[2], s[3], med, sum]);
        }

        // ---- bursts (12) ----
        f.extend(bursts[0].features());
        f.extend(bursts[1].features());

        // ---- first/last 30 composition (4) ----
        f.push(first30[0] as f64);
        f.push(first30[1] as f64);
        f.push(last30[0] as f64);
        f.push(last30[1] as f64);

        // ---- sizes (12, zeroed when disabled) ----
        if self.cfg.use_sizes {
            f.push(sum_in);
            f.push(sum_out);
            f.extend(stats4_sorting(&mut sc.sz_in));
            f.extend(stats4_sorting(&mut sc.sz_out));
            sc.uniq.sort_unstable();
            sc.uniq.dedup();
            f.push(sc.uniq.len() as f64);
            f.push(if n > 0 { n_full as f64 / n as f64 } else { 0.0 });
        } else {
            f.extend(std::iter::repeat_n(0.0, 12));
        }

        debug_assert_eq!(f.len(), N_FEATURES);
        f
    }
}

/// Traces per parallel work item in [`extract_all`]: big enough to
/// amortize one extractor's scratch allocations, small enough to load-
/// balance a corpus across workers.
const EXTRACT_BLOCK: usize = 32;

/// Extract features for a whole corpus, in parallel.
///
/// Each worker block reuses one [`FeatureExtractor`]. Extraction is a pure function per trace, so the output is identical
/// at any `STOB_THREADS` setting and to the serial
/// [`extract_features`] loop.
pub fn extract_all(traces: &[Trace], cfg: &FeatureConfig) -> Vec<Vec<f64>> {
    let _sp = netsim::telemetry::span("wf.features.extract_all");
    let blocks: Vec<usize> = (0..traces.len()).step_by(EXTRACT_BLOCK).collect();
    let per_block = par::par_map(&blocks, |_, &lo| {
        let hi = (lo + EXTRACT_BLOCK).min(traces.len());
        let mut ex = FeatureExtractor::new(cfg);
        traces[lo..hi]
            .iter()
            .map(|t| ex.extract(t))
            .collect::<Vec<_>>()
    });
    per_block.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Nanos;
    use traces::sites::paper_sites;
    use traces::statgen::generate;
    use traces::TracePacket;

    fn sample_trace() -> Trace {
        generate(&paper_sites()[0], 0, 0, 1)
    }

    #[test]
    fn feature_vector_has_fixed_length() {
        let t = sample_trace();
        assert_eq!(
            extract_features(&t, &FeatureConfig::paper()).len(),
            N_FEATURES
        );
        assert_eq!(
            extract_features(&t, &FeatureConfig::with_sizes()).len(),
            N_FEATURES
        );
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let t = Trace::new(0, 0, vec![]);
        let f = extract_features(&t, &FeatureConfig::paper());
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn counts_are_correct() {
        let t = Trace::new(
            0,
            0,
            vec![
                TracePacket::new(Nanos(0), Direction::Out, 100),
                TracePacket::new(Nanos(10), Direction::In, 200),
                TracePacket::new(Nanos(20), Direction::In, 200),
            ],
        );
        let f = extract_features(&t, &FeatureConfig::paper());
        assert_eq!(f[0], 3.0); // total
        assert_eq!(f[1], 2.0); // in
        assert_eq!(f[2], 1.0); // out
        assert!((f[3] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_config_ignores_sizes() {
        let mut t = sample_trace();
        let f1 = extract_features(&t, &FeatureConfig::paper());
        for p in &mut t.packets {
            p.size *= 2; // radically different sizes
        }
        let f2 = extract_features(&t, &FeatureConfig::paper());
        assert_eq!(f1, f2, "size changes must not leak without use_sizes");
    }

    #[test]
    fn size_config_sees_sizes() {
        let mut t = sample_trace();
        let f1 = extract_features(&t, &FeatureConfig::with_sizes());
        for p in &mut t.packets {
            p.size += 1;
        }
        let f2 = extract_features(&t, &FeatureConfig::with_sizes());
        assert_ne!(f1, f2);
    }

    #[test]
    fn translation_invariance_in_absolute_time() {
        // Traces are normalized to start at 0; two identical patterns at
        // different absolute starting points featurize identically.
        let mk = |shift: u64| {
            let mut t = Trace::new(
                0,
                0,
                vec![
                    TracePacket::new(Nanos(shift), Direction::Out, 100),
                    TracePacket::new(Nanos(shift + 1000), Direction::In, 1514),
                    TracePacket::new(Nanos(shift + 3000), Direction::In, 1514),
                ],
            );
            t.normalize();
            t
        };
        let fa = extract_features(&mk(0), &FeatureConfig::paper());
        let fb = extract_features(&mk(1_000_000), &FeatureConfig::paper());
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_sites_have_different_features() {
        let sites = paper_sites();
        let a = extract_features(&generate(&sites[6], 6, 0, 1), &FeatureConfig::paper());
        let b = extract_features(&generate(&sites[8], 8, 0, 1), &FeatureConfig::paper());
        let diff = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| (**x - **y).abs() > 1e-9)
            .count();
        assert!(diff > 20, "only {diff} features differ between sites");
    }

    #[test]
    fn burst_detection() {
        // in in in out in in -> in-bursts [3, 2], out-bursts [1]
        let dirs = [-1i8, -1, -1, 1, -1, -1];
        let b_in = burst_features(&dirs, -1);
        assert_eq!(b_in[0], 2.0); // count
        assert_eq!(b_in[1], 3.0); // max
        assert!((b_in[2] - 2.5).abs() < 1e-12); // mean
        let b_out = burst_features(&dirs, 1);
        assert_eq!(b_out[0], 1.0);
        assert_eq!(b_out[1], 1.0);
    }

    #[test]
    fn truncated_traces_featurize_without_panic() {
        let t = sample_trace();
        for n in [1, 2, 5, 15, 30, 45] {
            let f = extract_features(&t.truncated(n), &FeatureConfig::paper());
            assert_eq!(f.len(), N_FEATURES);
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn single_pass_extractor_matches_reference_bitwise() {
        let sites = paper_sites();
        for cfg in [FeatureConfig::paper(), FeatureConfig::with_sizes()] {
            let mut ex = FeatureExtractor::new(&cfg);
            for (i, s) in sites.iter().enumerate() {
                for visit in 0..3 {
                    let t = generate(s, i, visit, 1 + visit as u64);
                    for prefix in [0usize, 1, 2, 15, 30] {
                        let t = t.truncated(prefix);
                        let want = extract_features(&t, &cfg);
                        let got = ex.extract(&t);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                        assert_eq!(bits(&want), bits(&got), "site {i} visit {visit}");
                    }
                }
            }
        }
    }

    #[test]
    fn extractor_handles_empty_trace() {
        let t = Trace::new(0, 0, vec![]);
        let mut ex = FeatureExtractor::new(&FeatureConfig::with_sizes());
        let f = ex.extract(&t);
        assert_eq!(f.len(), N_FEATURES);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn extract_all_matches_serial_reference() {
        let sites = paper_sites();
        let traces: Vec<Trace> = (0..sites.len())
            .flat_map(|i| (0..2).map(move |v| (i, v)))
            .map(|(i, v)| generate(&sites[i], i, v, 7))
            .collect();
        let cfg = FeatureConfig::paper();
        let all = extract_all(&traces, &cfg);
        assert_eq!(all.len(), traces.len());
        for (t, got) in traces.iter().zip(&all) {
            let want = extract_features(t, &cfg);
            assert_eq!(
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn all_features_finite_on_corpus() {
        let sites = paper_sites();
        for (i, s) in sites.iter().enumerate() {
            let t = generate(s, i, 0, 5);
            let f = extract_features(&t, &FeatureConfig::with_sizes());
            assert!(
                f.iter().all(|x| x.is_finite()),
                "{}: non-finite feature",
                s.name
            );
        }
    }
}
