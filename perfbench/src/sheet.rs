//! The metrics a run reports, and their JSON line.

use grafter_obs::json::JsonWriter;

use crate::oracle::Tally;

/// Named metric values with units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The metrics that must repeat exactly for one seed.
    #[cfg(test)]
    pub fn exact(&self) -> Vec<(&str, f64)> {
        self.rows
            .iter()
            .filter(|r| r.2.ends_with(".exact"))
            .map(|r| (r.0.as_str(), r.1))
            .collect()
    }

    /// Every recorded name, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|r| r.0.as_str())
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`. A
    /// value that is not a finite number makes the run incorrect (and is
    /// written as 0 to keep the line valid JSON).
    pub fn result_line(&self, tally: &Tally) -> String {
        let finite = self.rows.iter().all(|r| r.1.is_finite());
        let mut w = JsonWriter::with_capacity(64 * self.rows.len() + 128);
        w.begin_obj();
        w.key("correct").bool(tally.failed == 0 && finite);
        w.key("attempted").num(tally.attempted);
        w.key("failed").num(tally.failed);
        w.key("metrics").begin_obj();
        for (name, value, unit) in &self.rows {
            w.key(name).begin_obj();
            w.key("value")
                .float(if value.is_finite() { *value } else { 0.0 });
            w.key("unit").str(unit);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}
