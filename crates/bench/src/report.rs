//! Reporting helpers: aligned console tables plus JSON dumps under
//! `results/`, all routed through the runner's [`JobCtx`] so that
//! console text and result files are staged per job and emitted
//! deterministically — a single figure (`repro --only`) and the full
//! `repro` sweep share one code path.

use iat_runner::JobCtx;
use iat_telemetry::{Event, JsonlRecorder, MetricsSnapshot, Recorder as _};
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Renders the table into the job's console output.
    pub fn write_to(&self, ctx: &mut JobCtx) {
        ctx.out(&self.render());
    }
}

/// Formats a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Stages a telemetry event trace as JSON lines for
/// `results/<name>.jsonl`, one event object per line.
pub fn save_trace(ctx: &mut JobCtx, name: &str, events: &[Event]) {
    let mut rec = JsonlRecorder::new(Vec::new());
    for e in events {
        rec.record(e.clone());
    }
    ctx.save_bytes(&format!("{name}.jsonl"), rec.into_inner());
}

/// Stages a metrics summary for `results/<name>.metrics.json`.
pub fn save_metrics(ctx: &mut JobCtx, name: &str, metrics: &MetricsSnapshot) {
    let mut text = metrics.to_json().pretty();
    text.push('\n');
    ctx.save_bytes(&format!("{name}.metrics.json"), text.into_bytes());
}

/// The shared figure skeleton: an aligned table, a parallel JSON row
/// list, an optional closing "Paper shape" note, and the
/// `results/<name>.json` dump — assembled by a figure's merge job from
/// the rows its leaf jobs computed.
#[derive(Debug)]
pub struct FigureReport {
    name: String,
    table: Table,
    json: Vec<serde_json::Value>,
    note: Option<String>,
}

impl FigureReport {
    /// Creates the report; `name` is the `results/` file stem (e.g.
    /// `"fig08"`), `title` and `header` configure the console table.
    pub fn new(name: &str, title: &str, header: &[&str]) -> Self {
        FigureReport {
            name: name.to_owned(),
            table: Table::new(title, header),
            json: Vec::new(),
            note: None,
        }
    }

    /// Appends one table row and its JSON record.
    pub fn row(&mut self, cells: &[String], json: serde_json::Value) {
        self.table.row(cells);
        self.json.push(json);
    }

    /// Appends a table row with no JSON record (for figures whose JSON
    /// granularity differs from the table's).
    pub fn table_row(&mut self, cells: &[String]) {
        self.table.row(cells);
    }

    /// Appends a JSON record with no table row.
    pub fn json(&mut self, json: serde_json::Value) {
        self.json.push(json);
    }

    /// Sets the closing note printed after the table (without the
    /// leading blank line, which `finish` adds).
    pub fn note(&mut self, text: &str) {
        self.note = Some(text.to_owned());
    }

    /// Renders the table (and note) into the job's console output,
    /// then stages `results/<name>.json`.
    pub fn finish(self, ctx: &mut JobCtx) {
        ctx.metrics
            .counter_add("bench.rows", self.json.len() as u64);
        self.table.write_to(ctx);
        if let Some(n) = &self.note {
            ctx.outln(&format!("\n{n}"));
        }
        ctx.save_json(&self.name, &serde_json::Value::Array(self.json));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.2345, 2), "1.23");
        assert_eq!(pct(0.156), "15.6%");
    }
}
