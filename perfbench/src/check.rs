//! Exactness checks: every pass's simulated output is digested and
//! compared with the digest recorded for the current
//! `gpu_sim::SIM_VERSION`, and with the run's first pass. Simulated
//! cycles are results, not performance, so a mismatch is a failed
//! operation — never a timing.

use std::collections::BTreeMap;

use serde::Serialize;
use sim_service::blake2s;

/// File (relative to the package root) holding the recorded digests.
pub const RECORDED_FILE: &str = "digests.json";

/// BLAKE2s of the canonical JSON of a pass's outputs, as hex.
pub fn digest_of<T: Serialize + ?Sized>(outputs: &T) -> String {
    let json = serde_json::to_string(outputs).expect("simulation outputs serialize");
    blake2s(json.as_bytes()).to_hex()
}

/// Digests recorded per `SIM_VERSION`, each keyed by a case label that
/// names the workload, its ids and its scale (see `Plan::case`).
#[derive(Debug, Default)]
pub struct Recorded {
    by_version: BTreeMap<String, BTreeMap<String, String>>,
}

impl Recorded {
    /// Parses the recorded-digest file's text.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("{RECORDED_FILE}: {e}"))?;
        let mut by_version = BTreeMap::new();
        let serde_json::Value::Object(versions) = value else {
            return Err(format!("{RECORDED_FILE}: expected an object"));
        };
        for (version, cases) in versions {
            let serde_json::Value::Object(cases) = cases else {
                return Err(format!("{RECORDED_FILE}: `{version}` is not an object"));
            };
            let mut map = BTreeMap::new();
            for (case, digest) in cases {
                let serde_json::Value::Str(digest) = digest else {
                    return Err(format!("{RECORDED_FILE}: `{case}` is not a string"));
                };
                map.insert(case, digest);
            }
            by_version.insert(version, map);
        }
        Ok(Recorded { by_version })
    }

    /// The recorded digest of `case` under `sim_version`, if any.
    pub fn get(&self, sim_version: &str, case: &str) -> Option<&str> {
        self.by_version
            .get(sim_version)
            .and_then(|cases| cases.get(case))
            .map(String::as_str)
    }

    /// Records `digest` for `case` under `sim_version`.
    pub fn insert(&mut self, sim_version: &str, case: &str, digest: &str) {
        self.by_version
            .entry(sim_version.to_string())
            .or_default()
            .insert(case.to_string(), digest.to_string());
    }

    /// Pretty JSON text with sorted keys, for the recorded-digest file.
    pub fn to_text(&self) -> String {
        let value = serde_json::Value::Object(
            self.by_version
                .iter()
                .map(|(v, cases)| {
                    let cases = cases
                        .iter()
                        .map(|(c, d)| (c.clone(), serde_json::Value::Str(d.clone())))
                        .collect();
                    (v.clone(), serde_json::Value::Object(cases))
                })
                .collect(),
        );
        serde_json::to_string_pretty(&value).expect("digest table serializes") + "\n"
    }
}

/// Compares one pass's output digest with the expected one. The
/// expectation is the recorded digest when there is one; otherwise the
/// first pass of the run sets it, so later passes (and warm passes
/// against cold ones) must still agree byte for byte. Returns whether
/// the pass matched.
pub fn matches(expected: &mut Option<String>, digest: &str) -> bool {
    match expected {
        Some(want) => want == digest,
        None => {
            *expected = Some(digest.to_string());
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_workloads::Technique;
    use gpu_sim::{GpuConfig, IterationReport};

    fn reports() -> Vec<IterationReport> {
        let frame = arc_workloads::spec("PS-SS").unwrap().scaled(0.2).build();
        vec![arc_workloads::run_iteration(&GpuConfig::tiny(), Technique::Baseline, &frame).unwrap()]
    }

    #[test]
    fn a_perturbed_report_fails_the_digest_check() {
        let good = reports();
        let mut expected = Some(digest_of(&good));
        assert!(matches(&mut expected, &digest_of(&good)));

        let mut bad = good.clone();
        bad[0].kernels[0].cycles += 1;
        assert!(!matches(&mut expected, &digest_of(&bad)));
    }

    #[test]
    fn without_a_record_the_first_pass_sets_the_expectation() {
        let good = reports();
        let mut expected = None;
        assert!(matches(&mut expected, &digest_of(&good)));
        let mut bad = good.clone();
        bad[0].kernels[0].counters.instructions_issued += 1;
        assert!(!matches(&mut expected, &digest_of(&bad)));
        assert!(matches(&mut expected, &digest_of(&good)));
    }

    #[test]
    fn recorded_table_round_trips() {
        let mut table = Recorded::default();
        table.insert("v1", "grid|a|0.5", "00ff");
        table.insert("v1", "frame|b|0.5", "11ee");
        let back = Recorded::parse(&table.to_text()).unwrap();
        assert_eq!(back.get("v1", "grid|a|0.5"), Some("00ff"));
        assert_eq!(back.get("v2", "grid|a|0.5"), None);
        assert_eq!(back.to_text(), table.to_text());
    }
}
