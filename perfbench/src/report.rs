//! Result records: the JSON a run prints and saves, and the comparison
//! of two sets of records against the bounds in `BENCHMARK.json`.

use crate::host::Fingerprint;
use crate::run::{Config, Outcome};
use crate::stats::median;
use ipr_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of a saved record.
pub const SCHEMA: &str = "ipr-perfbench/1";

/// JSON numbers cannot be NaN or infinite.
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The full record: run settings, input digest, host, sample counts and
/// the result line.
#[must_use]
pub fn record(cfg: &Config, outcome: &Outcome, host: &Fingerprint) -> String {
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    format!(
        "{{\"schema\": \"{SCHEMA}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"input_digest\": \"{}\", \"passes\": {}, \"samples\": {{{}}}, \"host\": {}, \"result\": {}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        outcome.input_digest,
        outcome.passes,
        samples.join(", "),
        host.to_json(),
        result_line(outcome)
    )
}

/// One end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// On malformed JSON or a malformed metric entry.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The parts of a saved record a comparison needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Digest of the generated inputs.
    pub input_digest: String,
    /// CPU model, core count and resolved engine threads, as one string.
    pub host: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Parses a saved record (or the stdout line carrying it).
    ///
    /// # Errors
    ///
    /// On malformed JSON or missing fields.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = json::parse(text.trim()).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not an {SCHEMA} record"));
        }
        let text_of = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("").to_string();
        let host = doc.get("host");
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or("record has no metrics")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        Ok(Record {
            workload: text_of(doc.get("workload")),
            seed: doc
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("record has no seed")?,
            input_digest: text_of(doc.get("input_digest")),
            host: format!(
                "{} x{}, {} engine threads",
                text_of(host.and_then(|h| h.get("cpu_model"))),
                host.and_then(|h| h.get("nproc"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                host.and_then(|h| h.get("engine_threads"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            ),
            metrics,
        })
    }
}

/// One metric's comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Median of the base records.
    pub base: f64,
    /// Median of the new records.
    pub new: f64,
    /// How much worse the new median is, as a share of the base (negative
    /// when better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// True when `worse_by` exceeds the bound.
    pub regressed: bool,
}

/// What a comparison concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The two sides did not run on the same inputs: no verdict.
    InputsDiffer(String),
    /// The two sides ran on different hosts: no verdict.
    HostDiffers(String),
    /// Metric by metric, against the bounds.
    Compared(Vec<Row>),
}

impl Verdict {
    /// Number of metrics worse than their bound.
    #[must_use]
    pub fn regressions(&self) -> usize {
        match self {
            Verdict::Compared(rows) => rows.iter().filter(|r| r.regressed).count(),
            _ => 0,
        }
    }
}

/// Compares the medians of two sets of records of one workload.
///
/// Inputs are compared first: when the sides' seeds or input digests
/// differ, the data changed and no metric is judged. Then the hosts;
/// then each bounded metric.
#[must_use]
pub fn compare(bounds: &[Bound], base: &[Record], new: &[Record]) -> Verdict {
    let inputs = |side: &[Record]| -> BTreeMap<(String, u64), String> {
        side.iter()
            .map(|r| ((r.workload.clone(), r.seed), r.input_digest.clone()))
            .collect()
    };
    let (bi, ni) = (inputs(base), inputs(new));
    if bi != ni {
        let detail = bi
            .iter()
            .find(|(k, d)| ni.get(*k) != Some(*d))
            .or_else(|| ni.iter().find(|(k, _)| !bi.contains_key(*k)))
            .map_or_else(String::new, |((w, seed), d)| {
                let other = ni.get(&(w.clone(), *seed)).map_or("absent", String::as_str);
                format!("{w} seed {seed}: base digest {d}, new {other}")
            });
        return Verdict::InputsDiffer(detail);
    }
    let hosts = |side: &[Record]| side.iter().map(|r| r.host.clone()).collect::<Vec<_>>();
    let (bh, nh) = (hosts(base), hosts(new));
    if let Some(h) = nh.iter().find(|h| !bh.contains(h)) {
        return Verdict::HostDiffers(format!("base ran on {}, new on {h}", bh[0]));
    }
    let med = |side: &[Record], name: &str| {
        median(
            &side
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };
    Verdict::Compared(
        bounds
            .iter()
            .map(|b| {
                let (base, new) = (med(base, &b.name), med(new, &b.name));
                let delta = if b.higher_is_better {
                    base - new
                } else {
                    new - base
                };
                let worse_by = if base == 0.0 { 0.0 } else { delta / base };
                Row {
                    name: b.name.clone(),
                    base,
                    new,
                    worse_by,
                    bound: b.bound,
                    regressed: worse_by > b.bound,
                }
            })
            .collect(),
    )
}
