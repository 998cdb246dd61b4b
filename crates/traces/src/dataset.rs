//! Labelled datasets and evaluation splits.

use crate::model::Trace;
use netsim::SimRng;

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
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    pub fn per_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes()];
        for t in &self.traces {
            counts[t.label] += 1;
        }
        counts
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
    fn truncation_applies_to_all() {
        let d = dataset().truncated(15);
        assert!(d.traces.iter().all(|t| t.len() <= 15));
        let full = dataset().truncated(0);
        assert!(full.traces.iter().any(|t| t.len() > 15));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let traces = generate_corpus(&sites, 2, 1);
        let _ = Dataset::new(traces, vec!["only-one".into()]);
    }
}
