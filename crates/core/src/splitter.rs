//! Multipath splitting policies in the control-plane vocabulary.
//!
//! The splitting policy — *which leg carries the next datagram* — is a
//! traffic-shaping decision exactly like padding or delay, so it lives
//! in the same place: published into the [`crate::PolicyRegistry`] under
//! a [`crate::PolicyKey`], resolved per flow, and deployable as data through the
//! JSON sockopt path ([`crate::sockopt::publish_json`]). The
//! runtime itself ([`stack::mux::Splitter`]) and its wire form (the
//! `netsim::json::Wire` impl beside it) stay in the stack; this module
//! owns validation.

pub use stack::mux::SplitterSpec;
use stack::mux::{check_weights, MAX_PIPES};

/// Control-plane validation: a hostile or malformed spec must be
/// rejected at publish time, never at flow setup on the datapath.
pub fn validate_splitter(spec: &SplitterSpec) -> Result<(), String> {
    if let SplitterSpec::Weighted { weights } = spec {
        if weights.is_empty() {
            return Err("weighted splitter needs at least one weight".to_string());
        }
        if weights.len() > MAX_PIPES {
            return Err(format!(
                "weighted splitter has {} weights, cap is {MAX_PIPES}",
                weights.len()
            ));
        }
        check_weights(weights)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::json::{Json, Wire};

    #[test]
    fn round_trips_all_variants() {
        for spec in [
            SplitterSpec::RoundRobin,
            SplitterSpec::PaddedRandom,
            SplitterSpec::Weighted {
                weights: vec![3, 1, 2],
            },
        ] {
            let j = spec.to_json();
            let back = SplitterSpec::from_json(&j).expect("decode");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn rejects_hostile_specs() {
        assert!(validate_splitter(&SplitterSpec::Weighted { weights: vec![] }).is_err());
        assert!(validate_splitter(&SplitterSpec::Weighted {
            weights: vec![1, 0]
        })
        .is_err());
        assert!(validate_splitter(&SplitterSpec::Weighted {
            weights: vec![1; 17]
        })
        .is_err());
        assert!(validate_splitter(&SplitterSpec::RoundRobin).is_ok());
    }

    #[test]
    fn publish_and_bind_checks_share_the_weight_rule() {
        let cases = [
            (
                vec![1, 0],
                "weighted splitter weights must be positive".to_string(),
            ),
            (
                vec![1, stack::mux::MAX_WEIGHT + 1],
                format!(
                    "weighted splitter weights must be at most {}",
                    stack::mux::MAX_WEIGHT
                ),
            ),
        ];
        for (weights, want) in cases {
            let spec = SplitterSpec::Weighted { weights };
            assert_eq!(validate_splitter(&spec), Err(want.clone()));
            assert_eq!(spec.validate(2), Err(want));
        }
    }

    #[test]
    fn decode_rejects_unknown_variant() {
        let j = Json::from("ZigZag");
        assert!(SplitterSpec::from_json(&j).is_err());
        let weighted = |body: Json| Json::obj().set("Weighted", body);
        let j = weighted(Json::obj().set("weights", Json::from("x")));
        assert!(SplitterSpec::from_json(&j).is_err());
        let j = weighted(Json::obj().set("weights", vec![1u64]).set("wieghts", 1u64));
        let err = SplitterSpec::from_json(&j).unwrap_err();
        assert_eq!(err.message, "unknown field `wieghts`");
    }
}
