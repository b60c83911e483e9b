//! `BENCHMARK.json` at the repository root is the one list of the metrics
//! a run reports: the end-to-end ones (untraced runs) and the per-layer
//! ones (traced runs), each with its unit. It is compiled in; a figure the
//! benchmark computes but the manifest does not name is printed as an
//! `also` line and kept in the run record, not reported.

use serde_json::JsonValue as Value;

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// A reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
}

/// The parts of `BENCHMARK.json` a run needs.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Measured seconds per run.
    pub run_seconds: f64,
    /// Reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Reported by traced runs.
    pub per_layer: Vec<Metric>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("BENCHMARK.json: {key:?} is a {}", other.kind())),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?.as_arr().ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))
}

fn metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(v, key)?
        .iter()
        .map(|m| Ok(Metric { name: string(m, "name")?, unit: string(m, "unit")? }))
        .collect()
}

fn parse(text: &str) -> Result<Manifest, String> {
    let v = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = match field(&v, "run_seconds")? {
        Value::Int(n) => *n as f64,
        other => return Err(format!("BENCHMARK.json: run_seconds is a {}", other.kind())),
    };
    Ok(Manifest {
        run_seconds,
        end_to_end: metrics(&v, "end_to_end")?,
        per_layer: metrics(&v, "per_layer")?,
    })
}

/// The compiled-in manifest.
pub fn load() -> Result<Manifest, String> {
    parse(TEXT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Workload;

    fn number(v: &Value) -> f64 {
        match v {
            Value::Int(n) => *n as f64,
            Value::Float(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let m = load().expect("BENCHMARK.json parses");
        let v = serde_json::parse(TEXT).unwrap();
        let workloads: Vec<String> =
            list(&v, "workloads").unwrap().iter().map(|w| string(w, "name").unwrap()).collect();
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()), "{workloads:?}");
        let mut names: Vec<&str> =
            m.end_to_end.iter().chain(&m.per_layer).map(|m| m.name.as_str()).collect();
        names.extend(workloads.iter().map(String::as_str));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric or workload name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let v = serde_json::parse(TEXT).unwrap();
        let bounds: Vec<(String, f64)> = list(&v, "end_to_end")
            .unwrap()
            .iter()
            .map(|m| (string(m, "name").unwrap(), number(field(m, "bound").unwrap())))
            .collect();
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25), "{bounds:?}");
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").expect("setup_s is reported").1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup), "{bounds:?}");
    }
}
