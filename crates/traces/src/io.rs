//! Dataset persistence: plain JSON, so corpora collected by one binary
//! (e.g. a slow full-stack collection) can be reused by another (attack
//! sweeps, defense matrices) without re-simulation.

use crate::dataset::{Dataset, LoadStats};
use netsim::json::Json;
use std::fs;
use std::io;
use std::path::Path;

/// Save a dataset as JSON.
pub fn save_dataset(dataset: &Dataset, path: &Path) -> io::Result<()> {
    fs::write(path, dataset.to_json().to_string_compact())
}

/// Load a dataset from JSON.
pub fn load_dataset(path: &Path) -> io::Result<Dataset> {
    let json = fs::read_to_string(path)?;
    let value = Json::parse(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Dataset::from_json(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Load a dataset, skipping (and counting) malformed trace records
/// instead of failing the whole file. Use for field-collected corpora
/// where one truncated write should not discard the rest.
pub fn load_dataset_lenient(path: &Path) -> io::Result<(Dataset, LoadStats)> {
    let json = fs::read_to_string(path)?;
    let value = Json::parse(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Dataset::from_json_lenient(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::paper_sites;
    use crate::statgen::generate_corpus;

    #[test]
    fn round_trip_preserves_everything() {
        let sites: Vec<_> = paper_sites().into_iter().take(2).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        let d = Dataset::new(generate_corpus(&sites, 3, 1), names);
        let dir = std::env::temp_dir().join("stob-io-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("corpus.json");
        save_dataset(&d, &path).expect("save");
        let back = load_dataset(&path).expect("load");
        assert_eq!(back.class_names, d.class_names);
        assert_eq!(back.traces, d.traces);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_load_survives_a_corrupt_record() {
        let sites: Vec<_> = paper_sites().into_iter().take(2).collect();
        let names: Vec<String> = sites.iter().map(|s| s.name.to_string()).collect();
        let d = Dataset::new(generate_corpus(&sites, 3, 1), names);
        let dir = std::env::temp_dir().join("stob-io-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("corrupt.json");
        // Break one record in the serialized form.
        let json = d.to_json();
        let mut traces = json.req_arr("traces").expect("traces").to_vec();
        traces[2] = Json::from("truncated write");
        let json = Json::obj()
            .set(
                "class_names",
                json.field("class_names").expect("names").clone(),
            )
            .set("traces", Json::Arr(traces));
        fs::write(&path, json.to_string_compact()).expect("write");
        assert!(load_dataset(&path).is_err(), "strict load must refuse");
        let (back, stats) = load_dataset_lenient(&path).expect("lenient load");
        assert_eq!(back.len(), d.len() - 1);
        assert_eq!(stats.skipped(), 1);
        fs::remove_file(&path).ok();
    }

    /// Write `json` under the test directory and return its path.
    fn corpus_file(name: &str, json: &Json) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("stob-io-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        fs::write(&path, json.to_string_compact()).expect("write");
        path
    }

    /// A label outside the class list is outside input, not a broken
    /// internal condition: the strict load refuses it (it used to panic
    /// in `Dataset::new`), the lenient one counts and skips it.
    #[test]
    fn out_of_range_label_is_an_error_not_a_panic() {
        let sites: Vec<_> = paper_sites().into_iter().take(2).collect();
        let names: Vec<String> = sites.iter().map(|s| s.name.to_string()).collect();
        let mut hostile = Dataset::new(generate_corpus(&sites, 2, 1), names);
        hostile.traces[1].label = 2;
        let path = corpus_file("bad-label.json", &hostile.to_json());
        let err = load_dataset(&path).expect_err("strict load must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let (back, stats) = load_dataset_lenient(&path).expect("lenient load");
        assert_eq!((back.len(), stats.bad_labels), (hostile.len() - 1, 1));
        fs::remove_file(&path).ok();
    }

    /// A class list with a non-string entry cannot be repaired by
    /// dropping the entry: every later label would then name the wrong
    /// site. Both loads refuse the file.
    #[test]
    fn non_string_class_name_rejects_the_file() {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let names: Vec<String> = sites.iter().map(|s| s.name.to_string()).collect();
        let d = Dataset::new(generate_corpus(&sites, 1, 1), names);
        let json = d.to_json();
        let mut class_names = json.req_arr("class_names").expect("names").to_vec();
        class_names[0] = Json::from(7u64);
        let json = Json::obj()
            .set("class_names", Json::Arr(class_names))
            .set("traces", json.field("traces").expect("traces").clone());
        let path = corpus_file("bad-class-name.json", &json);
        for err in [
            load_dataset(&path).expect_err("strict load must refuse"),
            load_dataset_lenient(&path).expect_err("lenient load must refuse"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_dataset(Path::new("/nonexistent/nope.json")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("stob-io-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("garbage.json");
        fs::write(&path, "not json at all").expect("write");
        let err = load_dataset(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).ok();
    }
}
