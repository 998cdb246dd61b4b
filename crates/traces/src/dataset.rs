//! Labelled datasets and evaluation splits.

use crate::model::Trace;
use netsim::json::{Json, JsonError};
use netsim::SimRng;

/// What a lenient load kept and what it had to drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Trace records parsed and kept.
    pub kept: usize,
    /// Records skipped because they failed to parse.
    pub bad_records: usize,
    /// Records skipped because their label is outside the class list.
    pub bad_labels: usize,
}

impl LoadStats {
    pub fn skipped(&self) -> usize {
        self.bad_records + self.bad_labels
    }
}

/// A closed-world dataset: traces with labels in `0..n_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub traces: Vec<Trace>,
    pub class_names: Vec<String>,
}

impl Dataset {
    pub fn new(traces: Vec<Trace>, class_names: Vec<String>) -> Self {
        let n = class_names.len();
        assert!(
            traces.iter().all(|t| t.label < n),
            "label out of range for class names"
        );
        Dataset {
            traces,
            class_names,
        }
    }

    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }
    pub fn len(&self) -> usize {
        self.traces.len()
    }
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    pub fn per_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes()];
        for t in &self.traces {
            counts[t.label] += 1;
        }
        counts
    }

    /// JSON form `{class_names, traces}` for on-disk persistence.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set(
                "class_names",
                Json::Arr(
                    self.class_names
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect(),
                ),
            )
            .set(
                "traces",
                Json::Arr(self.traces.iter().map(|t| t.to_json()).collect()),
            )
    }

    /// The `class_names` member: every entry must be a string, or every
    /// later label would name the wrong site.
    fn class_names_from_json(v: &Json) -> Result<Vec<String>, JsonError> {
        let names = v.req_arr("class_names")?.iter();
        names
            .map(|n| {
                n.as_str().map(str::to_string).ok_or(JsonError {
                    offset: 0,
                    message: "class name is not a string".to_string(),
                })
            })
            .collect()
    }

    /// Parse the [`Dataset::to_json`] form back. A trace labelled outside
    /// the class list is an error, like any other malformed record.
    pub fn from_json(v: &Json) -> Result<Dataset, JsonError> {
        let class_names = Self::class_names_from_json(v)?;
        let traces = v
            .req_arr("traces")?
            .iter()
            .map(Trace::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(t) = traces.iter().find(|t| t.label >= class_names.len()) {
            return Err(JsonError {
                offset: 0,
                message: format!(
                    "trace label {} is outside the {} class names",
                    t.label,
                    class_names.len()
                ),
            });
        }
        Ok(Dataset {
            traces,
            class_names,
        })
    }

    /// Like [`Dataset::from_json`], but malformed trace records are
    /// skipped and counted instead of failing the whole load — a corpus
    /// with one truncated line is still ninety-nine good traces. Only a
    /// missing/unreadable `class_names` (one non-string entry makes the
    /// whole list unreadable: dropping it would shift every later label
    /// onto another site's name) or `traces` field fails the parse —
    /// nothing is interpretable without them.
    pub fn from_json_lenient(v: &Json) -> Result<(Dataset, LoadStats), JsonError> {
        let class_names = Self::class_names_from_json(v)?;
        let mut stats = LoadStats::default();
        let mut traces = Vec::new();
        for item in v.req_arr("traces")? {
            match Trace::from_json(item) {
                Ok(t) if t.label < class_names.len() => {
                    traces.push(t);
                    stats.kept += 1;
                }
                Ok(_) => stats.bad_labels += 1,
                Err(_) => stats.bad_records += 1,
            }
        }
        Ok((
            Dataset {
                traces,
                class_names,
            },
            stats,
        ))
    }

    /// Apply a per-trace transformation (e.g. a defense) to every trace.
    pub fn map_traces(&self, f: impl FnMut(&Trace) -> Trace) -> Dataset {
        Dataset {
            traces: self.traces.iter().map(f).collect(),
            class_names: self.class_names.clone(),
        }
    }

    /// Truncate every trace to its first `n` packets (0 = no-op), the §3
    /// censorship-setting view.
    pub fn truncated(&self, n: usize) -> Dataset {
        self.map_traces(|t| t.truncated(n))
    }

    /// Stratified train/test split: `test_frac` of each class goes to
    /// the test set. Returns (train indices, test indices).
    pub fn stratified_split(&self, test_frac: f64, rng: &mut SimRng) -> (Vec<usize>, Vec<usize>) {
        assert!((0.0..1.0).contains(&test_frac));
        let mut train = Vec::new();
        let mut test = Vec::new();
        for class in 0..self.n_classes() {
            let mut idx: Vec<usize> = self
                .traces
                .iter()
                .enumerate()
                .filter(|(_, t)| t.label == class)
                .map(|(i, _)| i)
                .collect();
            rng.shuffle(&mut idx);
            let n_test = ((idx.len() as f64) * test_frac).round() as usize;
            let n_test = n_test
                .min(idx.len().saturating_sub(1))
                .max(1.min(idx.len()));
            test.extend(idx.drain(..n_test));
            train.extend(idx);
        }
        (train, test)
    }

    /// Stratified k-fold indices: returns `k` (train, test) pairs.
    pub fn stratified_kfold(&self, k: usize, rng: &mut SimRng) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(k >= 2);
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for class in 0..self.n_classes() {
            let mut idx: Vec<usize> = self
                .traces
                .iter()
                .enumerate()
                .filter(|(_, t)| t.label == class)
                .map(|(i, _)| i)
                .collect();
            rng.shuffle(&mut idx);
            for (j, i) in idx.into_iter().enumerate() {
                folds[j % k].push(i);
            }
        }
        (0..k)
            .map(|t| {
                let test = folds[t].clone();
                let train: Vec<usize> = (0..k)
                    .filter(|&j| j != t)
                    .flat_map(|j| folds[j].iter().copied())
                    .collect();
                (train, test)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::paper_sites;
    use crate::statgen::generate_corpus;

    fn dataset() -> Dataset {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, 10, 1), names)
    }

    #[test]
    fn counts_and_classes() {
        let d = dataset();
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.len(), 30);
        assert_eq!(d.per_class_counts(), vec![10, 10, 10]);
    }

    #[test]
    fn stratified_split_is_stratified() {
        let d = dataset();
        let mut rng = SimRng::new(2);
        let (train, test) = d.stratified_split(0.3, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        for class in 0..3 {
            let n_test = test.iter().filter(|&&i| d.traces[i].label == class).count();
            assert_eq!(n_test, 3, "class {class} test share");
        }
        // Disjoint.
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), d.len());
    }

    #[test]
    fn kfold_covers_everything_exactly_once() {
        let d = dataset();
        let mut rng = SimRng::new(3);
        let folds = d.stratified_kfold(5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0usize; d.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), d.len());
            for &i in test {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each trace tested once");
    }

    #[test]
    fn truncation_applies_to_all() {
        let d = dataset().truncated(15);
        assert!(d.traces.iter().all(|t| t.len() <= 15));
        let full = dataset().truncated(0);
        assert!(full.traces.iter().any(|t| t.len() > 15));
    }

    #[test]
    fn lenient_parse_skips_and_counts_bad_records() {
        let d = dataset();
        let json = d.to_json();
        // Corrupt the persisted form: one record becomes a bare number,
        // one gets an out-of-range label, one loses its packets field.
        let mut traces = json.req_arr("traces").expect("traces").to_vec();
        traces[0] = Json::from(42u64);
        traces[1] = Json::obj().set("label", 999u64).set("visit", 0u64);
        let broken = Json::obj()
            .set(
                "class_names",
                json.field("class_names").expect("names").clone(),
            )
            .set("traces", Json::Arr(traces));
        // Strict parsing refuses the whole corpus...
        assert!(Dataset::from_json(&broken).is_err());
        // ...lenient parsing keeps the 28 good traces and counts the rest.
        let (lenient, stats) = Dataset::from_json_lenient(&broken).expect("lenient");
        assert_eq!(lenient.len(), d.len() - 2);
        assert_eq!(stats.kept, d.len() - 2);
        assert_eq!(stats.skipped(), 2);
        assert!(stats.bad_records >= 1, "{stats:?}");
        // An intact corpus loads without skips.
        let (full, stats) = Dataset::from_json_lenient(&json).expect("intact");
        assert_eq!(full.len(), d.len());
        assert_eq!(stats.skipped(), 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let traces = generate_corpus(&sites, 2, 1);
        let _ = Dataset::new(traces, vec!["only-one".into()]);
    }
}
