//! `BENCH_<id>.json` trajectory files: the [`Table`] every lab scenario
//! prints and writes, its parser, and the cross-run regression comparison
//! behind the report binary's `--compare` and `--gate` modes.
//!
//! The workspace builds without serde (vendor/README.md), so the format is
//! hand-rolled in both directions: one flat object whose values are
//! strings, string arrays, or arrays of string arrays.

use std::fmt::Write as _;

/// A printable, comparable experiment result — the in-memory form of a
/// `BENCH_<id>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl Table {
    /// The human form: a titled, column-aligned table plus its notes.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let len = cell.chars().count();
                match widths.get_mut(i) {
                    Some(w) => *w = (*w).max(len),
                    None => widths.push(len),
                }
            }
        }
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, &w)| format!("{c:w$}")).collect();
            padded.join("  ").trim_end().to_string()
        };
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        let _ = writeln!(out, "{}", line(&self.header));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// The machine-readable form written as `BENCH_<id>.json`.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", cells.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"header\":{},\"rows\":[{}],\"notes\":{}}}",
            esc(&self.id),
            esc(&self.title),
            arr(&self.header),
            rows.join(","),
            arr(&self.notes),
        )
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("dangling escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| self.err(&format!("bad \\u escape: {e}")))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.err(&format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn string_array(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.string()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn row_array(&mut self) -> Result<Vec<Vec<String>>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.string_array()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or ']' in rows")),
            }
        }
    }
}

/// Parses one `BENCH_<id>.json` document.
pub fn parse(json: &str) -> Result<Table, String> {
    let mut p = Parser::new(json);
    p.expect(b'{')?;
    let mut t = Table {
        id: String::new(),
        title: String::new(),
        header: Vec::new(),
        rows: Vec::new(),
        notes: Vec::new(),
    };
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "id" => t.id = p.string()?,
            "title" => t.title = p.string()?,
            "header" => t.header = p.string_array()?,
            "rows" => t.rows = p.row_array()?,
            "notes" => t.notes = p.string_array()?,
            other => return Err(format!("unexpected key {other:?}")),
        }
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => break,
            _ => return Err(p.err("expected ',' or '}'")),
        }
    }
    if t.id.is_empty() {
        return Err("trajectory has no id".into());
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// A cell value normalized for comparison: time-like, percentage and ratio
/// cells become nanosecond / plain-number floats, everything else stays
/// text.
fn numeric(cell: &str) -> Option<f64> {
    let s = cell.trim().trim_start_matches('+');
    if let Ok(v) = s.parse::<f64>() {
        return Some(v);
    }
    if let Some(pct) = s.strip_suffix('%') {
        return pct.trim().parse::<f64>().ok();
    }
    if let Some(ratio) = s.strip_suffix('x') {
        // Speedup cells like "1.23x" (a9's speedup columns).
        if let Ok(v) = ratio.trim().parse::<f64>() {
            return Some(v);
        }
    }
    for (suffix, scale) in [("ns", 1.0), ("µs", 1e3), ("us", 1e3), ("ms", 1e6), ("s", 1e9)] {
        if let Some(num) = s.strip_suffix(suffix) {
            if let Ok(v) = num.trim().parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    None
}

/// Reads one numeric cell out of a trajectory, addressed by row label
/// (first cell) and column header name. The report binary's `--gate` mode
/// uses this to compare one figure across two rows (a14's in-process
/// baseline vs its wire churn), where a full [`compare`] would drown in
/// missing-row noise.
pub fn read_cell(t: &Table, row_label: &str, column: &str) -> Result<f64, String> {
    let row = t
        .rows
        .iter()
        .find(|r| r.first().map(String::as_str) == Some(row_label))
        .ok_or_else(|| format!("table {}: no row labelled {row_label:?}", t.id))?;
    let idx = t
        .header
        .iter()
        .position(|h| h == column)
        .ok_or_else(|| format!("table {}: no column {column:?} in {:?}", t.id, t.header))?;
    let cell = row
        .get(idx)
        .ok_or_else(|| format!("table {}: row {row_label:?} has no cell {idx}", t.id))?;
    numeric(cell).ok_or_else(|| {
        format!("table {}: cell {row_label:?}/{column:?} = {cell:?} is not numeric", t.id)
    })
}

/// One per-metric delta between a baseline cell and the current cell.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub table: String,
    pub row: String,
    pub column: String,
    pub baseline: String,
    pub current: String,
    /// Percent change for numeric cells; `None` for text cells or when the
    /// baseline is zero.
    pub delta_pct: Option<f64>,
    /// Numeric drift beyond the threshold, a changed text cell, or a
    /// missing counterpart.
    pub regressed: bool,
}

/// Result of comparing one experiment's trajectories.
#[derive(Debug, Default)]
pub struct CompareReport {
    pub deltas: Vec<MetricDelta>,
    /// Row labels present only in the baseline or only in the current run.
    pub missing_rows: Vec<String>,
    pub extra_rows: Vec<String>,
}

impl CompareReport {
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count() + self.missing_rows.len()
    }
}

/// Compares `current` against `baseline`, flagging any numeric metric that
/// drifted by more than `threshold_pct` percent (either direction — a
/// "10× faster" cell is as suspicious as a 10× slower one in a determinism
/// check; for timing-noise tables pick a generous threshold) and any text
/// cell that changed at all.
pub fn compare(baseline: &Table, current: &Table, threshold_pct: f64) -> CompareReport {
    let mut report = CompareReport::default();
    let label = |row: &[String]| row.first().cloned().unwrap_or_default();

    for base_row in &baseline.rows {
        let key = label(base_row);
        let Some(cur_row) = current.rows.iter().find(|r| label(r) == key) else {
            report.missing_rows.push(key);
            continue;
        };
        for (i, base_cell) in base_row.iter().enumerate().skip(1) {
            let cur_cell = cur_row.get(i).map(String::as_str).unwrap_or("");
            let column = baseline.header.get(i).cloned().unwrap_or_else(|| format!("col{i}"));
            let (delta_pct, regressed) = match (numeric(base_cell), numeric(cur_cell)) {
                (Some(b), Some(c)) => {
                    if b == 0.0 {
                        (None, c != 0.0)
                    } else {
                        let pct = (c - b) / b * 100.0;
                        (Some(pct), pct.abs() > threshold_pct)
                    }
                }
                _ => (None, base_cell.trim() != cur_cell.trim()),
            };
            report.deltas.push(MetricDelta {
                table: baseline.id.clone(),
                row: key.clone(),
                column,
                baseline: base_cell.clone(),
                current: cur_cell.to_string(),
                delta_pct,
                regressed,
            });
        }
    }
    for cur_row in &current.rows {
        let key = label(cur_row);
        if !baseline.rows.iter().any(|r| label(r) == key) {
            report.extra_rows.push(key);
        }
    }
    report
}

/// Renders a compare report as the report binary prints it: per-metric
/// deltas, regressions flagged.
pub fn render(id: &str, report: &CompareReport, threshold_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== compare {id}: {} metrics, {} regression(s) (threshold {threshold_pct}%) ==",
        report.deltas.len(),
        report.regressions(),
    );
    for d in &report.deltas {
        let delta = match d.delta_pct {
            Some(pct) => format!("{pct:+.1}%"),
            None if d.baseline == d.current => "=".to_string(),
            None => "changed".to_string(),
        };
        let flag = if d.regressed { "  <-- REGRESSION" } else { "" };
        if d.regressed || d.delta_pct.map(|p| p.abs() > threshold_pct / 2.0).unwrap_or(false) {
            let _ = writeln!(
                out,
                "  {} / {}: {} -> {}  ({delta}){flag}",
                d.row, d.column, d.baseline, d.current
            );
        }
    }
    for row in &report.missing_rows {
        let _ = writeln!(out, "  row {row:?} missing from current run  <-- REGRESSION");
    }
    for row in &report.extra_rows {
        let _ = writeln!(out, "  row {row:?} is new in current run");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table {
            id: "X1".into(),
            title: "a \"quoted\" title\nwith newline".into(),
            header: vec!["op".into(), "ns/op".into(), "time".into()],
            rows: vec![
                vec!["read".into(), "1000".into(), "1.00 µs".into()],
                vec!["write".into(), "2500".into(), "2.50 µs".into()],
            ],
            notes: vec!["tab\there".into()],
        }
    }

    #[test]
    fn parse_roundtrips_to_json_output() {
        let t = table();
        let parsed = parse(&t.to_json()).unwrap();
        assert_eq!(parsed.id, "X1");
        assert_eq!(parsed.title, t.title);
        assert_eq!(parsed.header, t.header);
        assert_eq!(parsed.rows, t.rows);
        assert_eq!(parsed.notes, t.notes);
    }

    #[test]
    fn numeric_parses_units() {
        assert_eq!(numeric("123"), Some(123.0));
        assert_eq!(numeric("1.50 µs"), Some(1500.0));
        assert_eq!(numeric("2 ms"), Some(2e6));
        assert_eq!(numeric("750 ns"), Some(750.0));
        assert_eq!(numeric("3.5%"), Some(3.5));
        assert_eq!(numeric("+1.25 µs"), Some(1250.0));
        assert_eq!(numeric("1.23x"), Some(1.23));
        assert_eq!(numeric("allow"), None);
    }

    #[test]
    fn read_cell_addresses_by_row_label_and_header() {
        let t = parse(&table().to_json()).unwrap();
        assert_eq!(read_cell(&t, "write", "ns/op").unwrap(), 2500.0);
        assert_eq!(read_cell(&t, "read", "time").unwrap(), 1000.0);
        assert!(read_cell(&t, "nope", "ns/op").unwrap_err().contains("no row"));
        assert!(read_cell(&t, "read", "nope").unwrap_err().contains("no column"));
    }

    #[test]
    fn self_compare_reports_zero_regressions() {
        let t = parse(&table().to_json()).unwrap();
        let report = compare(&t, &t, 10.0);
        assert_eq!(report.regressions(), 0);
        assert!(report.deltas.iter().all(|d| d.delta_pct.unwrap_or(0.0) == 0.0));
    }

    #[test]
    fn drift_beyond_threshold_is_a_regression() {
        let base = parse(&table().to_json()).unwrap();
        let mut cur = base.clone();
        cur.rows[0][1] = "1500".into(); // +50% on a 10% threshold
        let report = compare(&base, &cur, 10.0);
        assert_eq!(report.regressions(), 1);
        let bad = report.deltas.iter().find(|d| d.regressed).unwrap();
        assert_eq!(bad.row, "read");
        assert!((bad.delta_pct.unwrap() - 50.0).abs() < 1e-9);
        // The same drift under a generous threshold passes.
        assert_eq!(compare(&base, &cur, 60.0).regressions(), 0);
    }

    #[test]
    fn text_change_and_missing_row_are_regressions() {
        let base = parse(&table().to_json()).unwrap();
        let mut cur = base.clone();
        cur.rows[1][2] = "broken".into(); // text change (unparseable)
        cur.rows.remove(0); // "read" row gone
        let report = compare(&base, &cur, 10.0);
        assert!(report.regressions() >= 2);
        assert_eq!(report.missing_rows, vec!["read".to_string()]);
    }
}
