//! Correctness checks and failure accounting.
//!
//! Every timed operation is checked outside its timed region: a traversal
//! against the unfused interpreter run on the same tree (final snapshot
//! and globals), a counted tier's metrics against the fused interpreter,
//! a cold build by running the engine once, and a `serve` response against
//! an in-process run of the same program, size and seed. An error or any
//! mismatch counts the operation as failed.

use grafter_engine::{Report, Session};
use grafter_obs::json::{parse, Json};
use grafter_runtime::{NodeId, SnapValue, Value};

/// Attempted and failed operation counts, plus the first failure's reason.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// The observable outcome of one traversal run: the tree it left behind
/// and the program's globals.
#[derive(Clone, Debug, PartialEq)]
pub struct FinalState {
    pub snapshot: Vec<(String, Vec<SnapValue>)>,
    pub globals: Vec<(String, SnapValue)>,
}

/// Globals compared bit for bit (NaN-safe), like heap snapshots.
fn snap(v: &Value) -> SnapValue {
    match v {
        Value::Int(i) => SnapValue::Int(*i),
        Value::Float(x) => SnapValue::Float(*x),
        Value::Bool(b) => SnapValue::Bool(*b),
        Value::Ref(None) => SnapValue::Null,
        Value::Ref(Some(n)) => SnapValue::Child(n.0 as usize),
    }
}

/// Captures the final state of `session` after `report`'s run on `root`.
pub fn final_state(session: &Session<'_>, root: NodeId, report: &Report) -> FinalState {
    FinalState {
        snapshot: session.snapshot(root),
        globals: report
            .globals
            .iter()
            .map(|(n, v)| (n.clone(), snap(v)))
            .collect(),
    }
}

/// `Ok` when `got` equals the reference `want`.
pub fn same_state(what: &str, want: &FinalState, got: &FinalState) -> Result<(), String> {
    if want.globals != got.globals {
        return Err(format!("{what}: globals differ from the reference"));
    }
    if want.snapshot.len() != got.snapshot.len() {
        return Err(format!(
            "{what}: final tree has {} nodes, the reference {}",
            got.snapshot.len(),
            want.snapshot.len()
        ));
    }
    match want
        .snapshot
        .iter()
        .zip(&got.snapshot)
        .position(|(a, b)| a != b)
    {
        Some(i) => Err(format!(
            "{what}: final tree differs from the reference at node {i}"
        )),
        None => Ok(()),
    }
}

/// `Ok` when two runs counted the same metrics.
pub fn same_metrics(what: &str, want: &Report, got: &Report) -> Result<(), String> {
    if want.metrics == got.metrics {
        Ok(())
    } else {
        Err(format!(
            "{what}: metrics {:?} differ from the reference {:?}",
            got.metrics, want.metrics
        ))
    }
}

/// The part of a run report a `serve` response is checked on: metrics
/// and globals, as the wire encodes them.
#[derive(Clone, Debug, PartialEq)]
pub struct WireOutcome {
    pub metrics: Json,
    pub globals: Json,
}

impl WireOutcome {
    /// The outcome of an in-process run, encoded as the daemon would.
    pub fn of_report(report: &Report) -> WireOutcome {
        let doc = parse(&report.to_json()).expect("report JSON parses");
        WireOutcome::of_report_json(&doc).expect("report JSON has metrics and globals")
    }

    fn of_report_json(report: &Json) -> Option<WireOutcome> {
        Some(WireOutcome {
            metrics: report.get("metrics")?.clone(),
            globals: report.get("globals")?.clone(),
        })
    }
}

/// Checks one `run` response body against the reference outcome.
pub fn check_response(body: &str, want: &WireOutcome) -> Result<(), String> {
    let doc = parse(body).map_err(|e| format!("unparseable response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("no message");
        return Err(format!("request failed: {msg}"));
    }
    let got = doc
        .get("report")
        .and_then(WireOutcome::of_report_json)
        .ok_or("response lacks report metrics or globals")?;
    if got.metrics != want.metrics {
        return Err("response metrics differ from the in-process reference".into());
    }
    if got.globals != want.globals {
        return Err("response globals differ from the in-process reference".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(x: i64) -> FinalState {
        FinalState {
            snapshot: vec![("N".into(), vec![SnapValue::Int(x), SnapValue::Null])],
            globals: vec![("g".into(), SnapValue::Float(f64::NAN))],
        }
    }

    #[test]
    fn a_wrong_reference_is_a_failure() {
        let mut tally = Tally::default();
        tally.check(same_state("run", &state(1), &state(1)));
        tally.check(same_state("run", &state(1), &state(2)));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.first_failure.unwrap().contains("node 0"));
    }

    #[test]
    fn responses_are_checked_on_metrics_and_globals() {
        let report = r#"{"metrics":{"visits":3},"globals":[{"name":"g","value":1.5}]}"#;
        let want = WireOutcome::of_report_json(&parse(report).unwrap()).unwrap();
        let ok = format!(r#"{{"ok":true,"report":{report}}}"#);
        assert_eq!(check_response(&ok, &want), Ok(()));
        let wrong = ok.replace("\"visits\":3", "\"visits\":4");
        assert!(check_response(&wrong, &want)
            .unwrap_err()
            .contains("metrics"));
        let failed = r#"{"ok":false,"error":{"stage":"runtime","message":"boom"}}"#;
        assert!(check_response(failed, &want).unwrap_err().contains("boom"));
    }
}
