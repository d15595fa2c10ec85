//! The one writer of the `BENCH_*.json` files (DESIGN §7.6): `bench`,
//! a `host` object, head fields, `checks`, then one array per row table —
//! top-level keys one per line, each row on one line, so a row greps
//! whole. A failed gate does not stop the run: [`Report::finish`] writes
//! the file and only then returns failure (exit 1). Exit 2 is reserved
//! for usage errors ([`crate::cli`]).

use crate::cli::usage_error;
use crate::microbench::{print_samples, Sample};
use ba_check::json::Json;
use std::process::ExitCode;

/// A bench report under construction.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    parallelism: usize,
    /// `bench`, `host`, then the head fields.
    head: Vec<(String, Json)>,
    checks: Vec<(String, Json)>,
    /// Row tables in first-use order.
    tables: Vec<(String, Vec<Json>)>,
    /// Every timed row's sample, for the table printed on stderr.
    samples: Vec<Sample>,
    /// Names of the gates that failed.
    failed: Vec<String>,
}

/// One timed cell of a thread-count sweep, as [`Report::scaling_gate`]
/// compares them.
#[derive(Debug)]
pub struct ScalingCell {
    /// Everything that identifies the cell but the thread count.
    pub workload: String,
    /// Worker threads the cell ran on.
    pub threads: usize,
    /// The cell's median time.
    pub median_ns: f64,
}

impl Report {
    /// An empty report named `bench`, tagged with this host. On a
    /// single-core host it warns that rows at threads > 1 can only
    /// measure coordination overhead.
    pub fn new(bench: &'static str) -> Report {
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        if parallelism == 1 {
            eprintln!(
                "bench_{bench}: warning: single-core host (available_parallelism = 1); \
                 rows at threads > 1 measure coordination overhead only"
            );
        }
        let host = Json::Obj(vec![
            ("available_parallelism".into(), parallelism.into()),
            ("sha256_backend".into(), ba_crypto::sha256::backend().into()),
        ]);
        Report {
            bench,
            parallelism,
            head: vec![("bench".into(), bench.into()), ("host".into(), host)],
            checks: Vec::new(),
            tables: Vec::new(),
            samples: Vec::new(),
            failed: Vec::new(),
        }
    }

    fn bin(&self) -> String {
        format!("bench_{}", self.bench)
    }

    /// Adds a top-level field after `host`.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) {
        self.head.push((key.to_string(), value.into()));
    }

    /// Adds a reported value to `checks`.
    pub fn check(&mut self, key: &str, value: impl Into<Json>) {
        self.checks.push((key.to_string(), value.into()));
    }

    /// Adds a gate to `checks`: if `ok` is false, [`Report::finish`]
    /// fails.
    pub fn gate(&mut self, key: &str, ok: bool) {
        self.check(key, ok);
        if !ok {
            eprintln!("{}: gate {key} FAILED", self.bin());
            self.failed.push(key.to_string());
        }
    }

    /// Appends a row to `table`: `fields`, then `median_ns` / `mean_ns` /
    /// `min_ns` from `sample`, which also joins the stderr table.
    pub fn row(&mut self, table: &str, fields: Vec<(&str, Json)>, sample: Option<&Sample>) {
        let mut row: Vec<(String, Json)> = fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        if let Some(s) = sample {
            row.push(("median_ns".into(), Json::dec(s.median_ns, 1)));
            row.push(("mean_ns".into(), Json::dec(s.mean_ns, 1)));
            row.push(("min_ns".into(), Json::dec(s.min_ns, 1)));
            self.samples.push(s.clone());
        }
        match self.tables.iter_mut().find(|(name, _)| name == table) {
            Some((_, rows)) => rows.push(Json::Obj(row)),
            None => self.tables.push((table.into(), vec![Json::Obj(row)])),
        }
    }

    /// The `--assert-scaling <ratio>` gate (nothing when `ratio` is
    /// `None`): in every workload, the widest thread count's median must
    /// be at most `ratio` × the narrowest's. With nothing to compare it
    /// is a usage error (exit 2); on a single-core host it is skipped,
    /// since extra workers can only add coordination overhead there.
    pub fn scaling_gate(&mut self, ratio: Option<f64>, cells: &[ScalingCell]) {
        let Some(ratio) = ratio else { return };
        let bin = self.bin();
        let over = scaling_failures(ratio, cells)
            .unwrap_or_else(|e| usage_error(&bin, &format!("--assert-scaling: {e}")));
        if self.parallelism == 1 {
            eprintln!("{bin}: --assert-scaling skipped: single-core host");
        } else if over.is_empty() {
            eprintln!("{bin}: scaling gate passed (widest <= {ratio} x narrowest threads)");
        } else {
            for line in &over {
                eprintln!("{bin}: scaling gate FAILED: {line}");
            }
            self.failed.push("--assert-scaling".to_string());
        }
    }

    /// The report's text.
    fn render(&self) -> String {
        let line = |key: &str, value| format!("  {}: {value}", Json::from(key).inline());
        let mut lines: Vec<String> = self.head.iter().map(|(k, v)| line(k, v.inline())).collect();
        if !self.checks.is_empty() {
            lines.push(line("checks", Json::Obj(self.checks.clone()).inline()));
        }
        for (name, rows) in &self.tables {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.inline())).collect();
            lines.push(line(name, format!("[\n{}\n  ]", rows.join(",\n"))));
        }
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Prints the row tables on stderr, writes the report to `path`, and
    /// only then fails if any gate did.
    pub fn finish(self, path: &str) -> ExitCode {
        let bin = self.bin();
        print_samples(&bin, &self.samples);
        if let Err(e) = std::fs::write(path, self.render()) {
            eprintln!("{bin}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("{bin}: wrote {path}");
        if self.failed.is_empty() {
            return ExitCode::SUCCESS;
        }
        eprintln!("{bin}: FAILED: {}", self.failed.join(", "));
        ExitCode::FAILURE
    }
}

/// The comparisons [`Report::scaling_gate`] fails on, one line each:
/// cells at the widest thread count whose median exceeds `ratio` × the
/// same workload's at the narrowest.
///
/// # Errors
/// When nothing would be compared: fewer than two distinct thread counts
/// (none if the gated section did not run), or no workload timed at both.
fn scaling_failures(ratio: f64, cells: &[ScalingCell]) -> Result<Vec<String>, String> {
    let threads = || cells.iter().map(|c| c.threads);
    let (lo, hi) = (threads().min().unwrap_or(0), threads().max().unwrap_or(0));
    if lo == hi {
        return Err("needs timings at two distinct thread counts; did its section run?".into());
    }
    let base = |c: &ScalingCell| {
        cells
            .iter()
            .find(|b| b.threads == lo && b.workload == c.workload)
    };
    let pairs: Vec<_> = cells
        .iter()
        .filter(|c| c.threads == hi)
        .filter_map(|c| Some((base(c)?, c)))
        .collect();
    if pairs.is_empty() {
        return Err(format!(
            "no workload was timed at both threads={lo} and threads={hi}"
        ));
    }
    Ok(pairs
        .into_iter()
        .filter(|(base, cell)| cell.median_ns > base.median_ns * ratio)
        .map(|(base, cell)| {
            format!(
                "{}: threads={hi} median {:.0} ns > {ratio} x threads={lo} median {:.0} ns",
                cell.workload, cell.median_ns, base.median_ns
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(median_ns: f64) -> Sample {
        Sample {
            name: "row".into(),
            batch_iters: 1,
            batches: 7,
            median_ns,
            mean_ns: median_ns + 1.0,
            min_ns: median_ns - 1.0,
        }
    }

    fn cell(workload: &str, threads: usize, median_ns: f64) -> ScalingCell {
        ScalingCell {
            workload: workload.into(),
            threads,
            median_ns,
        }
    }

    #[test]
    fn layout_is_one_key_per_line_and_one_row_per_line() {
        let mut report = Report::new("test");
        report.field("scheme", "Fast");
        report.check("flat", true);
        report.check("speedup", Json::dec(1.26, 3));
        report.row(
            "rows",
            vec![
                ("label", "L=128 k=1023".into()),
                ("ns_per_message", Json::dec(16.5, 2)),
            ],
            Some(&sample(100.0)),
        );
        report.row("rows", vec![("n", 16usize.into())], None);
        report.row("sha256", vec![("bytes", 64usize.into())], None);
        let text = report.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], r#"  "bench": "test","#);
        assert!(
            lines[2].starts_with(r#"  "host": {"available_parallelism": "#),
            "{}",
            lines[2]
        );
        assert!(lines[2].contains(r#", "sha256_backend": ""#));
        assert_eq!(
            &lines[3..],
            [
                r#"  "scheme": "Fast","#,
                r#"  "checks": {"flat": true, "speedup": 1.260},"#,
                r#"  "rows": ["#,
                r#"    {"label": "L=128 k=1023", "ns_per_message": 16.50, "median_ns": 100.0, "mean_ns": 101.0, "min_ns": 99.0},"#,
                r#"    {"n": 16}"#,
                r#"  ],"#,
                r#"  "sha256": ["#,
                r#"    {"bytes": 64}"#,
                r#"  ]"#,
                "}",
            ]
        );
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn no_checks_means_no_checks_key() {
        let report = Report::new("test");
        assert!(!report.render().contains("checks"));
    }

    #[test]
    fn a_failed_gate_still_writes_the_report_then_fails() {
        let path =
            std::env::temp_dir().join(format!("ba-bench-report-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let mut report = Report::new("test");
        report.gate("held", true);
        report.gate("broken", false);
        let text = report.render();
        assert_eq!(report.finish(path), ExitCode::FAILURE);
        let written = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(written, text);
        assert!(written.contains(r#""checks": {"held": true, "broken": false}"#));

        let mut report = Report::new("test");
        report.gate("held", true);
        assert_eq!(report.finish(path), ExitCode::SUCCESS);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn the_scaling_comparison_needs_two_thread_counts() {
        for cells in [
            vec![],
            vec![cell("ds n=1024", 4, 10.0), cell("alg3 n=1024", 4, 9.0)],
        ] {
            let err = scaling_failures(1.0, &cells).unwrap_err();
            assert!(err.contains("two distinct thread counts"), "{err}");
        }
        let disjoint = [cell("a", 1, 10.0), cell("b", 4, 10.0)];
        assert!(scaling_failures(1.0, &disjoint)
            .unwrap_err()
            .contains("no workload"));
    }

    #[test]
    fn the_scaling_comparison_passes_and_fails_per_workload() {
        let cells = [
            cell("a", 1, 100.0),
            cell("a", 2, 500.0),
            cell("a", 4, 120.0),
            cell("b", 1, 100.0),
            cell("b", 2, 10.0),
            cell("b", 4, 130.0),
        ];
        assert_eq!(scaling_failures(1.3, &cells), Ok(vec![]));
        let over = scaling_failures(1.25, &cells).unwrap();
        assert_eq!(over.len(), 1);
        assert!(
            over[0].starts_with("b: threads=4 median 130 ns > 1.25 x threads=1"),
            "{}",
            over[0]
        );
    }
}
