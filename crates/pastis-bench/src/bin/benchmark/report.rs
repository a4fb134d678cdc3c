//! The metric tables, and the report a measuring process hands back to the
//! coordinator as one line of JSON.

use crate::api::{parse_json, JsonValue, JsonWriter};
use crate::trace::Span;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
    }
}

/// The end-to-end metrics, each with the share of the parent's median by
/// which it may get worse. `BENCHMARK.json` repeats this table; the
/// `benchmark_json_matches_the_tables` test keeps the two equal.
pub const END_TO_END: [(Metric, f64); 3] = [
    (lower("wall_s", "s"), 0.20),
    (lower("peak_rss_mb", "MB"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics of the traced pass. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 49] = [
    lower("seqio.parse_s", "s"),
    higher("seqio.parse_mb_per_s", "MB/s"),
    lower("core.kmer_matrix_s", "s"),
    lower("core.kmer_nnz", "count"),
    lower("sparse.spgemm_s", "s"),
    lower("sparse.spgemm_products", "count"),
    lower("sparse.spgemm_out_nnz", "count"),
    higher("sparse.products_per_s", "1/s"),
    lower("sparse.computed_bytes", "bytes"),
    lower("core.filter_s", "s"),
    higher("core.filter_pass_ratio", "ratio"),
    lower("align.batch_s", "s"),
    lower("align.pairs", "count"),
    lower("align.cells", "count"),
    higher("align.gcups", "Gcell/s"),
    higher("align.simd_backend", "id"),
    higher("pool.align_speedup_2t", "ratio"),
    higher("pool.spgemm_speedup_2t", "ratio"),
    higher("core.edge_pass_ratio", "ratio"),
    lower("core.output_s", "s"),
    lower("core.output_bytes", "bytes"),
    lower("core.reported_align_s", "s"),
    lower("core.reported_spgemm_s", "s"),
    lower("core.reported_sparse_other_s", "s"),
    lower("core.reported_cwait_s", "s"),
    lower("pipeline.residue", "ratio"),
    lower("comm.bcasts", "count"),
    lower("comm.all_to_allvs", "count"),
    lower("comm.bytes", "bytes"),
    lower("index.build_s", "s"),
    lower("index.bytes", "bytes"),
    lower("index.open_s", "s"),
    lower("index.load_stripe_s", "s"),
    lower("index.load_stripe_median_s", "s"),
    higher("index.load_mb_per_s", "MB/s"),
    lower("serve.queries_s", "s"),
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.batches", "count"),
    lower("serve.aligned_pairs", "count"),
    lower("serve.align_amplification", "ratio"),
    lower("trace.telemetry_overhead", "ratio"),
    higher("truth.recall", "ratio"),
    higher("truth.precision", "ratio"),
    lower("info.wall_s", "s"),
    higher("info.aligns_per_s", "1/s"),
    higher("info.cups", "1/s"),
    higher("info.queries_per_s", "1/s"),
    lower("info.serve_batch_ratio", "ratio"),
    higher("info.speedup_2t", "ratio"),
];

/// What one measuring process found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Seconds of each timed rep.
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The exact counts of the last rep, equal on every rep.
    pub counts: Vec<(String, u64)>,
    /// Named values: the ungated rates of a timed pass, or every
    /// per-layer metric of a traced pass.
    pub values: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn failure(message: String) -> Report {
        Report {
            attempted: 1,
            failed: 1,
            errors: vec![message],
            ..Report::default()
        }
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("wall_s").begin_array();
        for &s in &self.wall_s {
            w.f64(s);
        }
        w.end_array();
        w.field_f64("peak_rss_mb", self.peak_rss_mb);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("errors").begin_array();
        for e in &self.errors {
            w.string(e);
        }
        w.end_array();
        w.key("counts").begin_object();
        for (k, v) in &self.counts {
            w.field_u64(k, *v);
        }
        w.end_object();
        w.key("values").begin_object();
        for (k, v) in &self.values {
            w.field_f64(k, *v);
        }
        w.end_object();
        w.key("spans").begin_array();
        for s in &self.spans {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_u64("start_us", s.start_us);
            w.field_u64("end_us", s.end_us);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = parse_json(text)?;
        let array = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("report lacks the array '{k}'"))
        };
        let pairs = |k: &str| match v.get(k) {
            Some(JsonValue::Object(m)) => Ok(m),
            _ => Err(format!("report lacks the object '{k}'")),
        };
        let number = |v: &JsonValue, k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("report lacks the number '{k}'"))
        };
        Ok(Report {
            wall_s: array("wall_s")?
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect(),
            peak_rss_mb: number(&v, "peak_rss_mb")?,
            attempted: number(&v, "attempted")? as u64,
            failed: number(&v, "failed")? as u64,
            errors: array("errors")?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_owned))
                .collect(),
            counts: pairs("counts")?
                .iter()
                .filter_map(|(k, n)| Some((k.clone(), n.as_u64()?)))
                .collect(),
            values: pairs("values")?
                .iter()
                .filter_map(|(k, n)| Some((k.clone(), n.as_f64()?)))
                .collect(),
            spans: array("spans")?
                .iter()
                .map(|s| {
                    Ok(Span {
                        name: s
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .ok_or("span lacks a name")?
                            .to_owned(),
                        start_us: number(s, "start_us")? as u64,
                        end_us: number(s, "end_us")? as u64,
                        parent: s
                            .get("parent")
                            .and_then(JsonValue::as_u64)
                            .map(|p| p as usize),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_trip_through_json() {
        let report = Report {
            wall_s: vec![1.25, 1.5],
            peak_rss_mb: 42.5,
            attempted: 2,
            failed: 1,
            errors: vec!["a \"quoted\" failure".to_owned()],
            counts: vec![("cells".to_owned(), 1 << 40)],
            values: vec![("info.cups".to_owned(), 1.5e9)],
            spans: vec![
                Span {
                    name: "replay".to_owned(),
                    start_us: 0,
                    end_us: 10,
                    parent: None,
                },
                Span {
                    name: "align.batch".to_owned(),
                    start_us: 2,
                    end_us: 9,
                    parent: Some(0),
                },
            ],
        };
        assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse_json(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let rows = |k: &str| doc.get(k).and_then(JsonValue::as_array).unwrap().to_vec();
        let text = |row: &JsonValue, k: &str| row.get(k).unwrap().as_str().unwrap().to_owned();
        let better = |m: &Metric| if m.lower_is_better { "lower" } else { "higher" };

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, (m, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), better(m));
            assert_eq!(row.get("bound").unwrap().as_f64(), Some(*bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), better(m));
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
