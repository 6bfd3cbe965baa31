//! The metrics the benchmark reports, as `BENCHMARK.json` declares them.
//! That file is compiled in and is the only list of workload and metric
//! names, units, directions and bounds; a run that computes a metric it
//! does not declare, or misses an end-to-end one it does, fails.
//! `README.md` gives each layer metric's layer, how it is measured, and
//! which end-to-end metric it should move on which workload.

use std::sync::OnceLock;

use folearn_obs::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Stable name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Manifest {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// Parse a `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
        let list = |key: &str| -> Result<Vec<Json>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be a list"))
        };
        let field = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|v| {
                    let better = match field(v, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    let bound = v.get("bound").and_then(Json::as_num);
                    if bound.is_some() != bounded {
                        return Err(format!(
                            "BENCHMARK.json: `{key}` entries {} a bound",
                            if bounded { "need" } else { "take no" }
                        ));
                    }
                    Ok(Metric {
                        name: field(v, "name")?,
                        unit: field(v, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

/// The `BENCHMARK.json` this binary was built with.
pub fn declared() -> &'static Manifest {
    static DECLARED: OnceLock<Manifest> = OnceLock::new();
    DECLARED.get_or_init(|| {
        Manifest::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    })
}

/// The unit of a declared metric.
pub fn unit(name: &str) -> Option<&'static str> {
    let m = declared();
    m.end_to_end
        .iter()
        .chain(&m.per_layer)
        .find(|d| d.name == name)
        .map(|d| d.unit.as_str())
}

/// Prefix of values a run computes for its own tables but never reports.
pub const INTERNAL: &str = "attribution.";

/// `values` in the order `declared` lists them. A declared metric with
/// no value reads `missing` when that is given and is an error
/// otherwise; a value no declaration names (and not [`INTERNAL`]) is an
/// error.
pub fn in_declared_order(
    declared: &'static [Metric],
    values: &[(&str, f64)],
    missing: Option<f64>,
) -> Result<Vec<(&'static str, f64)>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !n.starts_with(INTERNAL) && !declared.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    declared
        .iter()
        .map(|d| {
            let v = values.iter().find(|(n, _)| *n == d.name).map(|(_, v)| *v);
            v.or(missing)
                .map(|v| (d.name.as_str(), v))
                .ok_or_else(|| format!("no value for declared metric {}", d.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declared_metrics_are_well_formed() {
        let m = declared();
        let mut seen = std::collections::HashSet::new();
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(seen.insert(d.name.as_str()), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(!d.name.starts_with(INTERNAL));
        }
        let bound = |name: &str| {
            m.end_to_end
                .iter()
                .find(|d| d.name == name)
                .and_then(|d| d.bound)
        };
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for d in &m.end_to_end {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
            assert!(
                b <= bound("setup_s").unwrap(),
                "setup_s has the largest bound"
            );
        }
    }

    #[test]
    fn values_are_put_in_declared_order_and_checked_against_it() {
        let m = Manifest::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "b", "unit": "s", "better": "higher", "bound": 0.2}],
                "per_layer": [{"name": "c", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap();
        let e2e: &'static [Metric] = Box::leak(m.end_to_end.into_boxed_slice());
        let got = in_declared_order(e2e, &[("b", 2.0), ("attribution.x", 9.0), ("a", 1.0)], None);
        assert_eq!(got.unwrap(), vec![("a", 1.0), ("b", 2.0)]);
        assert!(in_declared_order(e2e, &[("a", 1.0)], None).is_err());
        assert_eq!(
            in_declared_order(e2e, &[("a", 1.0)], Some(0.0)).unwrap(),
            vec![("a", 1.0), ("b", 0.0)]
        );
        assert!(in_declared_order(e2e, &[("a", 1.0), ("b", 2.0), ("z", 3.0)], None).is_err());
        assert!(Manifest::parse(
            r#"{"workloads": [], "end_to_end": [{"name": "a", "unit": "s", "better": "lower"}],
                "per_layer": []}"#
        )
        .is_err());
    }
}
